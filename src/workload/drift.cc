#include "workload/drift.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace peercache::workload {

const char* DriftKindName(DriftKind kind) {
  switch (kind) {
    case DriftKind::kNone:
      return "none";
    case DriftKind::kRankShuffle:
      return "rank-shuffle";
    case DriftKind::kFlashCrowd:
      return "flash-crowd";
  }
  return "none";  // unreachable
}

bool ParseDriftKind(const std::string& text, DriftKind* out) {
  if (text == "none") {
    *out = DriftKind::kNone;
  } else if (text == "rank-shuffle") {
    *out = DriftKind::kRankShuffle;
  } else if (text == "flash-crowd") {
    *out = DriftKind::kFlashCrowd;
  } else {
    return false;
  }
  return true;
}

DriftModel::DriftModel(const ItemSpace& items, const PopularityModel& base,
                       const DriftConfig& config)
    : items_(items), base_(base), config_(config) {
  assert(config.enabled());
  assert(config.max_epochs >= 1);
  const size_t n = items.n_items();
  const int epochs = config_.max_epochs;
  if (config_.kind == DriftKind::kRankShuffle) {
    const size_t shuffled = std::min(
        n, static_cast<size_t>(
               std::ceil(config_.shuffle_fraction * static_cast<double>(n))));
    epoch_rank_to_item_.resize(static_cast<size_t>(base.n_lists()));
    for (int list = 0; list < base.n_lists(); ++list) {
      auto& per_epoch = epoch_rank_to_item_[static_cast<size_t>(list)];
      per_epoch.resize(static_cast<size_t>(epochs));
      // Epoch 0 is the base assignment.
      per_epoch[0].resize(n);
      for (size_t rank = 1; rank <= n; ++rank) {
        per_epoch[0][rank - 1] =
            static_cast<uint32_t>(base.ItemAtRank(list, rank));
      }
      for (int e = 1; e < epochs; ++e) {
        per_epoch[static_cast<size_t>(e)] =
            per_epoch[static_cast<size_t>(e - 1)];
        auto& table = per_epoch[static_cast<size_t>(e)];
        Rng rng(SplitSeed(config_.seed,
                          static_cast<uint64_t>(list) *
                                  static_cast<uint64_t>(epochs) +
                              static_cast<uint64_t>(e)));
        // Re-shuffle the chosen positions' items among themselves: a
        // permutation of a permutation is a permutation, so every item
        // keeps exactly one rank.
        std::vector<uint64_t> positions = rng.SampleDistinct(n, shuffled);
        std::vector<uint32_t> values;
        values.reserve(shuffled);
        for (uint64_t p : positions) values.push_back(table[p]);
        rng.Shuffle(values);
        for (size_t i = 0; i < positions.size(); ++i) {
          table[positions[i]] = values[i];
        }
      }
    }
  } else if (config_.kind == DriftKind::kFlashCrowd) {
    flash_items_.resize(static_cast<size_t>(epochs));
    for (int e = 0; e < epochs; ++e) {
      // Pick the flash item from the cold half of the ranking so the spike
      // hits a peer the frequency tables have barely seen.
      const size_t cold_ranks = n - n / 2;
      const size_t rank =
          n / 2 + 1 +
          MixHash64(SplitSeed(config_.seed, static_cast<uint64_t>(e))) %
              cold_ranks;
      flash_items_[static_cast<size_t>(e)] =
          static_cast<uint32_t>(base.ItemAtRank(0, rank));
    }
  }
}

int DriftModel::EpochOf(int64_t query_index) const {
  assert(query_index >= 0);
  const int64_t epoch = query_index / config_.period;
  return static_cast<int>(
      std::min<int64_t>(epoch, config_.max_epochs - 1));
}

size_t DriftModel::ItemAtRank(int list_index, int epoch, size_t rank) const {
  if (config_.kind != DriftKind::kRankShuffle) {
    return base_.ItemAtRank(list_index, rank);
  }
  return epoch_rank_to_item_[static_cast<size_t>(list_index)]
                            [static_cast<size_t>(epoch)][rank - 1];
}

size_t DriftModel::FlashItem(int epoch) const {
  return flash_items_[static_cast<size_t>(epoch)];
}

size_t DriftModel::SampleItem(int list_index, int64_t query_index,
                              Rng& rng) const {
  const int epoch = EpochOf(query_index);
  if (IsFlashEpoch(epoch) && rng.Bernoulli(config_.flash_boost)) {
    return FlashItem(epoch);
  }
  const size_t rank = base_.zipf().Sample(rng);
  return ItemAtRank(list_index, epoch, rank);
}

}  // namespace peercache::workload
