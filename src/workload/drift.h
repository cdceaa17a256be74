#ifndef PEERCACHE_WORKLOAD_DRIFT_H_
#define PEERCACHE_WORKLOAD_DRIFT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "workload/workload.h"

namespace peercache::workload {

/// How item popularity evolves over a run (paper workloads are stationary;
/// these model the production reality that popularity is not).
enum class DriftKind {
  kNone,         ///< Stationary zipf (the historical workload).
  kRankShuffle,  ///< A seeded fraction of rank positions re-shuffles each
                 ///< epoch: gradual popularity churn.
  kFlashCrowd,   ///< Alternate epochs divert a fixed probability mass to one
                 ///< previously-cold item: sudden spikes.
};

const char* DriftKindName(DriftKind kind);

/// Parses "none" / "rank-shuffle" / "flash-crowd"; returns false on other
/// input (for CLI flag handling).
bool ParseDriftKind(const std::string& text, DriftKind* out);

/// Popularity-drift knobs. Disabled by default: every experiment keeps the
/// stationary workload (and its byte-identical telemetry) unless a driver
/// opts in.
struct DriftConfig {
  DriftKind kind = DriftKind::kNone;
  /// Queries per node per epoch; 0 disables drift.
  int period = 0;
  /// kRankShuffle: fraction of rank positions re-shuffled entering each
  /// epoch.
  double shuffle_fraction = 0.25;
  /// kFlashCrowd: probability mass diverted to the flash item during a
  /// flash epoch.
  double flash_boost = 0.3;
  /// Epoch tables are precomputed up to this bound; later queries stay in
  /// the final epoch.
  int max_epochs = 32;
  uint64_t seed = 97;

  bool enabled() const { return kind != DriftKind::kNone && period > 0; }
};

/// Deterministic popularity drift over a base PopularityModel. All epoch
/// state is precomputed at construction (serially), after which the model is
/// read-only — the concurrent per-node query loops share one instance and
/// stay bit-identical at any thread count because every sample draws from
/// the caller's per-node RNG stream.
///
/// kRankShuffle: epoch 0 is the base rank->item assignment; epoch e+1 takes
/// epoch e and re-shuffles ceil(shuffle_fraction * n_items) seeded positions
/// among themselves, so popularity migrates gradually while the zipf shape
/// is preserved exactly.
///
/// kFlashCrowd: the base assignment never changes, but during every odd
/// ("flash") epoch a seeded item from the cold half of the ranking receives
/// `flash_boost` of the probability mass; the remaining mass scales the base
/// distribution by (1 - flash_boost), conserving total mass.
class DriftModel {
 public:
  /// Both references must outlive the model. `config.enabled()` must hold.
  DriftModel(const ItemSpace& items, const PopularityModel& base,
             const DriftConfig& config);

  const DriftConfig& config() const { return config_; }

  /// Epoch of a node's query_index-th query (clamped to max_epochs - 1).
  int EpochOf(int64_t query_index) const;

  /// kRankShuffle item at `rank` (1 = hottest) for a list/epoch; for other
  /// kinds this is the base assignment.
  size_t ItemAtRank(int list_index, int epoch, size_t rank) const;

  /// kFlashCrowd: the boosted item index of `epoch` (valid for flash epochs).
  size_t FlashItem(int epoch) const;
  bool IsFlashEpoch(int epoch) const {
    return config_.kind == DriftKind::kFlashCrowd && (epoch % 2) == 1;
  }

  /// Draws the item index of the node's `query_index`-th query (warmup and
  /// measure share one monotone index so drift continues across phases).
  size_t SampleItem(int list_index, int64_t query_index, Rng& rng) const;

  /// The key of SampleItem's item: the same draw, as a key.
  uint64_t SampleKey(int list_index, int64_t query_index, Rng& rng) const {
    return items_.ItemKey(SampleItem(list_index, query_index, rng));
  }

  /// The item space SampleItem indexes (the base workload's).
  const ItemSpace& items() const { return items_; }

 private:
  const ItemSpace& items_;
  const PopularityModel& base_;
  DriftConfig config_;
  /// kRankShuffle: per list, per epoch, rank -> item.
  std::vector<std::vector<std::vector<uint32_t>>> epoch_rank_to_item_;
  /// kFlashCrowd: per epoch, the boosted item index.
  std::vector<uint32_t> flash_items_;
};

}  // namespace peercache::workload

#endif  // PEERCACHE_WORKLOAD_DRIFT_H_
