#ifndef PEERCACHE_EXPERIMENTS_OVERLAY_POLICY_H_
#define PEERCACHE_EXPERIMENTS_OVERLAY_POLICY_H_

#include <cstdint>

#include "auxsel/chord_maintainer.h"
#include "auxsel/maintainer.h"
#include "auxsel/oblivious.h"
#include "auxsel/pastry_maintainer.h"
#include "auxsel/selection_types.h"
#include "chord/chord_network.h"
#include "common/overlay.h"
#include "common/random.h"
#include "common/status.h"
#include "experiments/experiment_config.h"
#include "kademlia/kademlia_network.h"
#include "pastry/pastry_network.h"

namespace peercache::experiments {

/// Per-phase RNG stream bases derived from the experiment seed, so runs
/// with different selector policies see identical membership, workload,
/// and query sequences. The warmup/measure/selection entries are *stream
/// bases*: each node splits its own stream off them (SplitSeed), which is
/// what lets the per-node loops run in parallel without reordering
/// anyone's draws. The churn/query_times/origins bases drive the
/// event-driven churn simulation's three independent processes.
///
/// Each policy derives these with its own historical constants — the
/// committed results/ figures depend on them, so they are part of each
/// overlay's telemetry contract, not free to unify.
struct SeedPlan {
  uint64_t ids = 0;
  uint64_t coords = 0;  ///< Underlay coordinates (Pastry only).
  uint64_t items = 0;
  uint64_t lists = 0;
  uint64_t assign = 0;
  uint64_t warmup = 0;
  uint64_t measure = 0;
  uint64_t selection = 0;
  uint64_t churn = 0;
  uint64_t query_times = 0;
  uint64_t origins = 0;
};

/// The compile-time contract between an overlay backend and the generic
/// experiment engine (generic_experiment.h). A policy binds together:
///
///   * `Network`      — a type satisfying overlay::Overlay;
///   * `kName`        — the system label used in telemetry documents;
///   * `MakeSeedPlan` — the backend's historical seed-derivation constants;
///   * `MakeNetwork`  — network construction from the experiment config
///                      (which config knob feeds which protocol parameter);
///   * `SelectOptimal` / `SelectOblivious` / `SelectQos` — the backend's
///                      auxiliary-selection algorithms (paper Sec. IV/V;
///                      SelectQos honors per-peer delay bounds and returns
///                      kInfeasible when they cannot be met);
///   * `DrawOblivious` — the oblivious baseline's draw alone
///                      (auxsel/oblivious.h), which the engine runs on its
///                      round's validated pool: no copy, no validation, no
///                      Eq. 1 cost;
///   * `Maintainer` / `MakeMaintainer` — the backend's persistent
///                      incremental selector state (auxsel/maintainer.h),
///                      one instance per node, surviving churn rounds.
///
/// Everything else — node-id sampling, workload setup, warmup, selection,
/// measurement, and the churn event loop — is overlay-independent and
/// lives once in the generic engine.
struct ChordPolicy {
  using Network = chord::ChordNetwork;
  using Maintainer = auxsel::ChordAuxMaintainer;
  static constexpr const char* kName = "chord";

  static SeedPlan MakeSeedPlan(uint64_t seed);
  static Network MakeNetwork(const ExperimentConfig& config,
                             const SeedPlan& seeds);
  static Maintainer MakeMaintainer(const ExperimentConfig& config,
                                   uint64_t self_id);
  static Result<auxsel::Selection> SelectOptimal(
      const auxsel::SelectionInput& input);
  static Result<auxsel::Selection> SelectOblivious(
      const auxsel::SelectionInput& input, Rng& rng);
  static constexpr auto DrawOblivious = &auxsel::DrawChordOblivious;
  static Result<auxsel::Selection> SelectQos(
      const auxsel::SelectionInput& input);
};

struct PastryPolicy {
  using Network = pastry::PastryNetwork;
  using Maintainer = auxsel::PastryAuxMaintainer;
  static constexpr const char* kName = "pastry";

  static SeedPlan MakeSeedPlan(uint64_t seed);
  static Network MakeNetwork(const ExperimentConfig& config,
                             const SeedPlan& seeds);
  static Maintainer MakeMaintainer(const ExperimentConfig& config,
                                   uint64_t self_id);
  static Result<auxsel::Selection> SelectOptimal(
      const auxsel::SelectionInput& input);
  static Result<auxsel::Selection> SelectOblivious(
      const auxsel::SelectionInput& input, Rng& rng);
  static constexpr auto DrawOblivious = &auxsel::DrawPastryOblivious;
  static Result<auxsel::Selection> SelectQos(
      const auxsel::SelectionInput& input);
};

/// Kademlia's XOR estimate is the trie distance with one-bit digits
/// (bitlen(w ^ v) = b - lcp(w, v)), so it selects and maintains through
/// Pastry's gain-tree code: SelectPastryGreedy, SelectPastryGreedyQos and
/// PastryAuxMaintainer. Only its oblivious baseline is its own.
struct KademliaPolicy {
  using Network = kademlia::KademliaNetwork;
  using Maintainer = auxsel::PastryAuxMaintainer;
  static constexpr const char* kName = "kademlia";

  static SeedPlan MakeSeedPlan(uint64_t seed);
  static Network MakeNetwork(const ExperimentConfig& config,
                             const SeedPlan& seeds);
  static Maintainer MakeMaintainer(const ExperimentConfig& config,
                                   uint64_t self_id);
  static Result<auxsel::Selection> SelectOptimal(
      const auxsel::SelectionInput& input);
  static Result<auxsel::Selection> SelectOblivious(
      const auxsel::SelectionInput& input, Rng& rng);
  static constexpr auto DrawOblivious = &auxsel::DrawKademliaOblivious;
  static Result<auxsel::Selection> SelectQos(
      const auxsel::SelectionInput& input);
};

static_assert(overlay::Overlay<ChordPolicy::Network>);
static_assert(overlay::Overlay<PastryPolicy::Network>);
static_assert(overlay::Overlay<KademliaPolicy::Network>);
static_assert(auxsel::Maintainer<ChordPolicy::Maintainer>);
static_assert(auxsel::Maintainer<PastryPolicy::Maintainer>);
static_assert(auxsel::Maintainer<KademliaPolicy::Maintainer>);

}  // namespace peercache::experiments

#endif  // PEERCACHE_EXPERIMENTS_OVERLAY_POLICY_H_
