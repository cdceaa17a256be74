#ifndef PEERCACHE_EXPERIMENTS_PARALLEL_ENGINE_H_
#define PEERCACHE_EXPERIMENTS_PARALLEL_ENGINE_H_

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "auxsel/selection_types.h"
#include "common/fault.h"
#include "common/latency.h"
#include "common/random.h"
#include "common/route_kernel.h"
#include "common/route_result.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "experiments/experiment_config.h"
#include "workload/drift.h"
#include "workload/workload.h"

/// Shared machinery of the parallel experiment engine: the per-node
/// selection, warmup, and measurement loops of the Chord and Pastry drivers
/// are identical up to the network type, and each parallelizes the same
/// way — every node derives its own RNG stream with SplitSeed, writes only
/// to its own slot (its node state or an index-addressed partial), and the
/// partials are merged in node order afterwards. Serial (`threads = 1`) and
/// parallel runs are therefore bit-identical; the determinism test
/// (tests/experiments/parallel_determinism_test.cc) enforces this.
namespace peercache::experiments::internal {

/// Wall-clock stopwatch for RunResult's phase timings.
class PhaseTimer {
 public:
  PhaseTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Builds the frequency-oblivious candidate pool once per selection round
/// and validates it once (auxsel::ValidatePool): every live id, in
/// `live_ids` order, with zero frequency. The pool is shared (read-only) by
/// all per-node selection tasks, which draw from it in place and skip
/// themselves (Policy::DrawOblivious), so no task copies or re-checks it.
/// A repeated or out-of-range id fails the round with InvalidArgument.
inline Result<std::vector<auxsel::PeerFreq>> ObliviousPool(
    const std::vector<uint64_t>& live_ids, int bits) {
  std::vector<auxsel::PeerFreq> pool;
  pool.reserve(live_ids.size());
  for (uint64_t id : live_ids) pool.push_back({id, 0.0, -1});
  if (Status s = auxsel::ValidatePool(pool, bits); !s.ok()) return s;
  return pool;
}

/// Runs `install(index, node_id, rng)` for every node with an independent
/// RNG stream per node, and returns the first (lowest-index) failure. The
/// index lets callers write per-node side channels (e.g. the predicted
/// Eq. 1 cost for the audit) into index-addressed slots without locking.
/// `selection_seed` must be fresh per round (churn recomputations split a
/// round counter off the base selection seed) so repeated rounds do not
/// replay identical random draws.
template <typename InstallFn>
Status ParallelInstall(ThreadPool& pool, const std::vector<uint64_t>& ids,
                       uint64_t selection_seed, const InstallFn& install) {
  std::vector<Status> statuses(ids.size());
  pool.ParallelFor(0, ids.size(), 1, [&](size_t i) {
    Rng rng(SplitSeed(selection_seed, ids[i]));
    statuses[i] = install(i, ids[i], rng);
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

/// Grain of the item-resolution pass: enough items per chunk that the
/// pool's per-chunk hand-off is noise beside the lookups.
inline constexpr size_t kResolveGrain = 1024;

/// Ground truth of every item on the current membership: owner[i] is
/// net.ResponsibleNode(items.ItemKey(i)), resolved once per item in one
/// parallel pass (each index writes only its own slot). Fails with
/// ResponsibleNode's status when the overlay is empty, its sole failure.
template <typename Network>
Result<std::vector<uint64_t>> ResolveItemOwners(
    ThreadPool& pool, const Network& net, const workload::ItemSpace& items) {
  std::vector<uint64_t> owner(items.n_items());
  if (owner.empty()) return owner;
  Result<uint64_t> first = net.ResponsibleNode(items.ItemKey(0));
  if (!first.ok()) return first.status();
  owner[0] = first.value();
  // Cannot fail: the overlay is non-empty and the net is const here.
  pool.ParallelFor(1, owner.size(), kResolveGrain, [&](size_t i) {
    owner[i] = net.ResponsibleNode(items.ItemKey(i)).value();
  });
  return owner;
}

/// Warmup: every node learns which peer answers each of its queries. Each
/// task reads the overlay (const) and writes only its own node's frequency
/// table. Every id of `node_ids` must name a node of `net`, and `queries`
/// must have all lists pre-assigned (AssignLists).
///
/// Queries name items of `queries.items()`, and membership does not change
/// during warmup, so every item is resolved once up front
/// (ResolveItemOwners). Each node then draws item indices from its own RNG
/// stream — the draws SampleKey makes — and records owner[item] in query
/// order. The answers are ResponsibleNode's and Record order is a
/// query-at-a-time loop's, so the frequency tables equal that loop's at
/// any thread count. Empty `node_ids` or `queries_per_node <= 0` resolve
/// nothing and return Ok.
///
/// When `drift` names an enabled popularity-drift model each item is drawn
/// from it instead, indexed by the node's monotone query counter offset by
/// `drift_query_base` (so warmup and measure share one drift timeline). A
/// null `drift` draws from the stationary workload.
template <typename Network>
Status ParallelWarmup(ThreadPool& pool, Network& net,
                      const std::vector<uint64_t>& node_ids,
                      workload::QueryWorkload& queries, uint64_t warmup_seed,
                      int queries_per_node,
                      const workload::DriftModel* drift = nullptr,
                      int64_t drift_query_base = 0) {
  assert(drift == nullptr || &drift->items() == &queries.items());
  if (node_ids.empty() || queries_per_node <= 0) return Status::Ok();
  Result<std::vector<uint64_t>> resolved =
      ResolveItemOwners(pool, net, queries.items());
  if (!resolved.ok()) return resolved.status();
  const std::vector<uint64_t>& owner = resolved.value();
  pool.ParallelFor(0, node_ids.size(), 4, [&](size_t i) {
    const uint64_t origin = node_ids[i];
    auto* node = net.GetNode(origin);
    assert(node != nullptr);
    Rng rng(SplitSeed(warmup_seed, origin));
    const int list = drift != nullptr ? queries.ListOf(origin) : 0;
    for (int q = 0; q < queries_per_node; ++q) {
      const size_t item =
          drift != nullptr
              ? drift->SampleItem(list, drift_query_base + q, rng)
              : queries.SampleItem(origin, rng);
      if (owner[item] != origin) node->frequencies.Record(owner[item]);
    }
  });
  return Status::Ok();
}

/// The facts every measured lookup contributes, tallied the same way on
/// the stable path (one tally per node, merged in node order) and in the
/// churn event loop (one tally): the query and its success, hops and
/// auxiliary hops, the hop histogram, resilience under a fault plan,
/// latency under a latency model, and the sampled trace. Every field but
/// the LogHistogram is an integer count, and per-node tallies merge into an
/// empty tally in node order, so the result is the same at every thread
/// count.
struct LookupTally {
  uint64_t queries = 0;
  uint64_t successes = 0;
  uint64_t route_hops = 0;  ///< Forwarding hops over successful lookups.
  uint64_t aux_hops = 0;    ///< Those forwarded through an auxiliary entry.
  Histogram hops{64};       ///< Per-lookup hops over successful lookups.
  ResilienceStats resilience;
  LogHistogram latency_ms;  ///< End-to-end latency of every lookup.
  std::vector<RouteTrace> traces;

  /// Counts one measured lookup routed with `options`: a fault plan adds
  /// it to `resilience`, a latency model to `latency_ms`, and a trace is
  /// moved into `traces`. Callers pass the plan and the model only when
  /// they are enabled.
  void Add(const overlay::RouteResult& route,
           const overlay::RouteOptions& options) {
    ++queries;
    if (options.faults != nullptr) resilience.Accumulate(route);
    if (options.latency != nullptr) latency_ms.Add(route.latency_ms);
    if (route.success) {
      ++successes;
      route_hops += static_cast<uint64_t>(route.hops);
      aux_hops += static_cast<uint64_t>(route.aux_hops);
      hops.Add(route.hops);
    }
    if (options.trace != nullptr) traces.push_back(std::move(*options.trace));
  }

  void Merge(LookupTally&& other) {
    queries += other.queries;
    successes += other.successes;
    route_hops += other.route_hops;
    aux_hops += other.aux_hops;
    hops.Merge(other.hops);
    resilience.Merge(other.resilience);
    latency_ms.Merge(other.latency_ms);
    for (RouteTrace& t : other.traces) traces.push_back(std::move(t));
  }

  /// Moves the tally into the run's typed fields and derives its three
  /// rates: success rate, mean hops and the auxiliary-hit rate.
  void WriteTo(RunResult& result) && {
    result.queries = queries;
    result.total_route_hops = route_hops;
    result.aux_route_hops = aux_hops;
    result.hop_histogram = std::move(hops);
    result.resilience = resilience;
    result.latency_histogram = std::move(latency_ms);
    result.traces = std::move(traces);
    result.success_rate = queries == 0 ? 1.0
                                       : static_cast<double>(successes) /
                                             static_cast<double>(queries);
    result.avg_hops = result.hop_histogram.Mean();
    result.aux_hit_rate = route_hops == 0
                              ? 0.0
                              : static_cast<double>(aux_hops) /
                                    static_cast<double>(route_hops);
  }
};

/// Measurement: routes every node's queries over the finished overlay
/// (Lookup is const) into one LookupTally per node, then merges them in
/// node order into `result`. Thread count cannot affect the totals. Every
/// `trace_sample_period`-th query per node is routed with a RouteTrace.
/// `predicted_hops[i]` (may be empty, or NaN per slot = no prediction)
/// pairs the selector's Eq. 1 prediction with node i's measured mean to
/// form `result.cost_audit`.
///
/// A non-null `faults` routes every lookup resiliently (stale-window faults
/// cannot occur here: stable-mode overlays hold no dead entries), and a
/// non-null `latency` times every lookup. Callers pass each only when it
/// is enabled.
template <typename Network>
Status ParallelMeasure(ThreadPool& pool, const Network& net,
                       const std::vector<uint64_t>& node_ids,
                       workload::QueryWorkload& queries, uint64_t measure_seed,
                       int queries_per_node, int trace_sample_period,
                       const std::vector<double>& predicted_hops,
                       RunResult& result,
                       const fault::FaultPlan* faults = nullptr,
                       const latency::LatencyModel* latency = nullptr,
                       const workload::DriftModel* drift = nullptr,
                       int64_t drift_query_base = 0) {
  std::vector<LookupTally> tallies(node_ids.size());
  std::vector<Status> statuses(node_ids.size());
  pool.ParallelFor(0, node_ids.size(), 1, [&](size_t i) {
    const uint64_t origin = node_ids[i];
    Rng rng(SplitSeed(measure_seed, origin));
    const int list = drift != nullptr ? queries.ListOf(origin) : 0;
    // One RouteResult per task, written into by every lookup: after the
    // path vector's capacity plateaus the measurement loop allocates
    // nothing per query.
    overlay::RouteResult route;
    for (int q = 0; q < queries_per_node; ++q) {
      const uint64_t key =
          drift != nullptr
              ? drift->SampleKey(list, drift_query_base + q, rng)
              : queries.SampleKey(origin, rng);
      const bool trace_this =
          trace_sample_period > 0 && q % trace_sample_period == 0;
      RouteTrace trace;
      const overlay::RouteOptions options{trace_this ? &trace : nullptr,
                                          faults, latency};
      if (Status s = net.LookupInto(origin, key, route, options); !s.ok()) {
        statuses[i] = s;
        return;
      }
      tallies[i].Add(route, options);
    }
  });

  LookupTally total;
  for (size_t i = 0; i < tallies.size(); ++i) {
    if (!statuses[i].ok()) return statuses[i];
    const LookupTally& node = tallies[i];
    const double predicted = i < predicted_hops.size()
                                 ? predicted_hops[i]
                                 : std::numeric_limits<double>::quiet_NaN();
    if (node.successes > 0 && predicted == predicted) {  // non-NaN
      CostAuditEntry entry;
      entry.node_id = node_ids[i];
      entry.predicted_hops = predicted;
      entry.measured_hops = static_cast<double>(node.route_hops) /
                            static_cast<double>(node.successes);
      entry.measured_queries = node.successes;
      result.cost_audit.push_back(entry);
    }
    total.Merge(std::move(tallies[i]));
  }
  std::sort(result.cost_audit.begin(), result.cost_audit.end(),
            [](const CostAuditEntry& a, const CostAuditEntry& b) {
              return a.node_id < b.node_id;
            });
  std::move(total).WriteTo(result);
  return Status::Ok();
}

/// The churn event loop's measurement window: one LookupTally over the
/// in-window lookups, which are routed one at a time, plus what only churn
/// needs. Trace sampling counts in-window lookups, and per-origin hop sums
/// feed the Eq. 1 audit against the *latest* recompute round's predictions
/// (under churn the selector re-predicts every round; auditing the final
/// round against the whole window is the best available comparison and is
/// reported as such in docs/OBSERVABILITY.md).
struct ChurnWindow {
  explicit ChurnWindow(int trace_sample_period)
      : trace_period(trace_sample_period) {}

  /// Whether the *next* in-window lookup should be routed with a trace.
  bool ShouldTraceNext() const {
    return trace_period > 0 &&
           tally.queries % static_cast<uint64_t>(trace_period) == 0;
  }

  /// Counts one in-window lookup from `origin` routed with `options`.
  void Add(uint64_t origin, const overlay::RouteResult& route,
           const overlay::RouteOptions& options) {
    tally.Add(route, options);
    if (route.success) {
      auto& acc = measured[origin];
      acc.first += static_cast<uint64_t>(route.hops);
      acc.second += 1;
    }
  }

  void Finalize(RunResult& result) {
    std::move(tally).WriteTo(result);
    // `measured` is an ordered map: entries come out in ascending node id.
    for (const auto& [node_id, acc] : measured) {
      auto it = predicted.find(node_id);
      if (it == predicted.end() || !(it->second == it->second)) continue;
      CostAuditEntry entry;
      entry.node_id = node_id;
      entry.predicted_hops = it->second;
      entry.measured_hops = static_cast<double>(acc.first) /
                            static_cast<double>(acc.second);
      entry.measured_queries = acc.second;
      result.cost_audit.push_back(entry);
    }
  }

  int trace_period;
  LookupTally tally;
  /// node id -> (sum of measured hops, successful measured lookups).
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> measured;
  /// node id -> latest Eq. 1 predicted mean hops (NaN entries skipped).
  std::map<uint64_t, double> predicted;
};

/// Snapshots every listed node's installed auxiliary set, sorted by id,
/// for the determinism test's selection comparison.
template <typename Network>
void CollectAuxiliaries(const Network& net, std::vector<uint64_t> ids,
                        RunResult& result) {
  std::sort(ids.begin(), ids.end());
  result.node_auxiliaries.clear();
  result.node_auxiliaries.reserve(ids.size());
  for (uint64_t id : ids) {
    if (net.GetNode(id) == nullptr) continue;
    const auto aux = net.AuxiliarySpan(id);
    result.node_auxiliaries.emplace_back(
        id, std::vector<uint64_t>(aux.begin(), aux.end()));
  }
}

/// Records the run's frequency-summary footprint: mean modeled bytes and
/// mean tracked peers per live node (ascending id — serial, so the figures
/// are thread-count invariant). Computed in every mode, so exact-mode
/// baselines can read their own footprint off the RunResult; the document
/// carries it only in sketch mode (json_report.h).
template <typename Network>
void RecordFrequencySummary(const Network& net, std::vector<uint64_t> ids,
                            const ExperimentConfig& config, RunResult& result) {
  std::sort(ids.begin(), ids.end());
  double bytes = 0.0;
  double tracked = 0.0;
  uint64_t nodes = 0;
  for (uint64_t id : ids) {
    const auto* node = net.GetNode(id);
    if (node == nullptr) continue;
    bytes += static_cast<double>(node->frequencies.SummaryMemoryBytes());
    tracked += static_cast<double>(node->frequencies.distinct());
    ++nodes;
    if (config.capture_freq_snapshots) {
      FreqSnapshotCapture capture;
      capture.node_id = id;
      capture.peers = node->frequencies.Snapshot(id);
      capture.core_ids = net.CoreNeighborIds(id);
      result.freq_snapshots.push_back(std::move(capture));
    }
  }
  if (nodes > 0) {
    bytes /= static_cast<double>(nodes);
    tracked /= static_cast<double>(nodes);
  }
  result.freq_summary_bytes_mean = bytes;
  result.freq_tracked_mean = tracked;
}

}  // namespace peercache::experiments::internal

#endif  // PEERCACHE_EXPERIMENTS_PARALLEL_ENGINE_H_
