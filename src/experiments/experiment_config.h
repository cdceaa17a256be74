#ifndef PEERCACHE_EXPERIMENTS_EXPERIMENT_CONFIG_H_
#define PEERCACHE_EXPERIMENTS_EXPERIMENT_CONFIG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "auxsel/frequency_table.h"
#include "common/fault.h"
#include "common/flat_table_arena.h"
#include "common/latency.h"
#include "common/route_result.h"
#include "common/stats.h"
#include "common/trace.h"
#include "experiments/cost_audit.h"
#include "workload/drift.h"

namespace peercache::experiments {

/// Which auxiliary-selection policy a run uses.
enum class SelectorKind {
  kNone,       ///< Core neighbors only (no auxiliary pointers).
  kOblivious,  ///< Paper Sec. VI-A frequency-oblivious baseline.
  kOptimal,    ///< The paper's frequency-aware optimal selection.
  /// QoS-constrained selection (paper Secs. IV-D, V-C): frequency-aware
  /// like kOptimal, but peers whose underlay RTT to the selecting node
  /// exceeds ExperimentConfig::qos_rtt_threshold_ms are constrained to
  /// `qos_delay_bound` overlay hops, forcing near-direct pointers at the
  /// latency-heavy destinations. Requires an enabled latency model; falls
  /// back to kOptimal per node when the bounds are infeasible.
  kQos,
};

const char* SelectorKindName(SelectorKind kind);

/// Parameters shared by every experiment (paper Sec. VI-A defaults).
struct ExperimentConfig {
  int bits = 32;           ///< 32-bit ids, as in the paper.
  int n_nodes = 1024;      ///< Default n.
  int k = 10;              ///< Auxiliary pointers; default log2(1024).
  double alpha = 1.2;      ///< Zipf parameter for item popularity.
  size_t n_items = 4096;   ///< Items hashed into the id space.
  int n_popularity_lists = 1;  ///< 1 = identical ranking everywhere;
                               ///< the paper's Chord runs use 5.
  uint64_t seed = 1;
  /// Stable-mode workload sizing: queries each node originates before
  /// auxiliary selection (frequency learning) and after it (measurement).
  int warmup_queries_per_node = 200;
  int measure_queries_per_node = 200;
  /// Frequency-table capacity (0 = unbounded exact counts).
  size_t frequency_capacity = 0;
  /// Bounded-memory sketch mode for every node's frequency table
  /// (auxsel::FreqSketchParams: space-saving top-k + count-min tail).
  /// Disabled by default; when enabled it takes precedence over
  /// `frequency_capacity` and turns on the telemetry document's
  /// "freq_sketch" block. Selection is the same at any thread count because
  /// the summary's tie-breaking is deterministic.
  auxsel::FreqSketchParams freq_sketch;
  /// Popularity-drift model applied to the stable-mode warmup and
  /// measurement query streams (workload::DriftConfig; docs/ALGORITHMS.md).
  /// Disabled by default: the workload is stationary. The two phases share
  /// one monotone per-node query index, so drift continues across the
  /// warmup/measure boundary.
  workload::DriftConfig drift;
  /// Heterogeneous auxiliary budgets (Sarshar & Roychowdhury,
  /// arXiv:cs/0210010): when > 0, the global budget n_nodes * k is
  /// redistributed across nodes proportionally to c_i^budget_gamma, where
  /// c_i is a seeded per-node Pareto capacity — instead of a fixed k per
  /// node. 0 (default) gives every node the uniform budget k.
  /// Stable runs only: under churn the optimal arm's incremental
  /// maintainers keep uniform k, so RunChurn rejects budget_gamma > 0
  /// rather than compare arms with unequal budgets.
  double budget_gamma = 0.0;
  uint64_t budget_seed = 7;
  /// Chord successor-list length. The paper's Chord variant keeps only the
  /// immediate successor besides its fingers; longer lists are a robustness
  /// extension (they also strengthen the oblivious baseline).
  int successor_list_size = 1;
  /// Pastry leaf-set entries per side.
  int leaf_set_half = 4;
  /// Worker threads for the per-node selection / warmup / measurement
  /// loops. 0 = std::thread::hardware_concurrency(), 1 = legacy serial
  /// path. Results are bit-identical for every value (each node draws from
  /// its own RNG stream; see docs/ALGORITHMS.md §4).
  int threads = 0;
  /// Route-trace sampling: record a full per-hop trace for every Nth
  /// measured query per node (0 = tracing off, the default — the untraced
  /// routing path costs one branch per hop). Sampled traces land in
  /// RunResult::traces in node order, so they too are thread-count
  /// invariant. See docs/OBSERVABILITY.md.
  int trace_sample_period = 0;
  /// Every Nth churn recompute round (round 0 counts) cross-checks each
  /// node's incremental selection against a from-scratch build of the same
  /// input and fails the run on a cost mismatch. Applies to the optimal
  /// policy's churn maintainers; 0 = never audit.
  int maintenance_audit_period = 4;
  /// Fault-injection knobs (common/fault.h). All probabilities default to
  /// zero, which disables injection: a null plan routes the fault-free path
  /// and the run object has no "resilience" block.
  fault::FaultConfig faults;
  /// Link-latency model knobs (common/latency.h). All magnitudes default to
  /// zero, which disables the model: a null model routes untimed and the
  /// run object has no "latency" block.
  latency::LatencyConfig latency;
  /// Optional measured RTT matrix overriding the synthetic coordinates for
  /// the node pairs it covers (loaded by the CLI via --latency-matrix).
  latency::PingMatrix latency_matrix;
  /// SelectorKind::kQos knobs: peers whose base RTT from the selecting node
  /// exceeds the threshold get `qos_delay_bound` as their delay bound
  /// (0 = demand a direct pointer). Threshold 0 constrains nothing.
  double qos_rtt_threshold_ms = 0.0;
  int qos_delay_bound = 0;
  /// Capture the overlay's end-of-run memory footprint (NodeStore +
  /// FlatTableArena accounting) into RunResult::memory and emit it as the
  /// telemetry document's "memory" block. Off by default.
  bool report_memory = false;
  /// Capture every node's end-of-run frequency snapshot and core neighbor
  /// set into RunResult::freq_snapshots (ascending node id). Bench-only
  /// plumbing for bench/freq_sketch's cross-evaluation — an exact run's
  /// captures are the frequency reference that sketch-chosen auxiliary
  /// sets are re-priced against under Eq. 1. Never serialized, so
  /// telemetry is unaffected. Meaningful for exact-mode runs (a sketch
  /// table's snapshot is its truncated summary, not the reference).
  bool capture_freq_snapshots = false;
};

/// Churn-mode parameters (paper Sec. VI-C): nodes alternate between alive
/// and dead states with exponentially distributed durations.
struct ChurnConfig {
  double mean_lifetime_s = 900.0;    ///< Mean alive AND mean dead duration.
  double queries_per_s = 4.0;        ///< Global Poisson query rate.
  double stabilize_interval_s = 25.0;
  double recompute_interval_s = 62.5;
  double warmup_s = 3600.0;          ///< Learning/mixing period.
  double measure_s = 3600.0;         ///< Measurement window.
};

/// Per-round bookkeeping of the optimal policy's incremental churn
/// maintainers: how many deltas of each kind the round applied
/// and how long the parallel application took. Every field except
/// `seconds` is a pure function of (seed, config) at any thread count.
struct MaintenanceRoundStats {
  double sim_time_s = 0.0;     ///< Event-queue time of the recompute tick.
  uint64_t live_nodes = 0;
  uint64_t bootstrapped = 0;   ///< Maintainers created this round.
  uint64_t peer_joins = 0;     ///< Bootstrap joins of already-observed peers.
  uint64_t peer_leaves = 0;    ///< Departure events applied to maintainers.
  uint64_t freq_deltas = 0;    ///< Dirty frequency updates drained.
  uint64_t core_deltas = 0;    ///< Core flags changed across all SetCores.
  uint64_t audited_nodes = 0;  ///< Nodes cross-checked against fresh builds.
  double seconds = 0.0;        ///< Wall clock (excluded from determinism).
};

/// Aggregated resilience accounting over the measured lookups of one run
/// under fault injection. Every field is a pure function of (seed, config)
/// at any thread count: per-lookup tallies come out of RouteResult and are
/// merged in node/index order.
struct ResilienceStats {
  uint64_t lookups = 0;           ///< Measured lookups routed under the plan.
  uint64_t delivered = 0;         ///< Delivered at the responsible node.
  uint64_t retried_lookups = 0;   ///< Lookups with >= 1 failed attempt.
  uint64_t retries = 0;           ///< Failed forwarding attempts, all causes.
  uint64_t dropped_forwards = 0;  ///< Attempts lost to message drops.
  uint64_t failstop_skips = 0;    ///< Attempts against fail-stopped nodes.
  uint64_t stale_forwards = 0;    ///< Attempts against stale dead entries.
  uint64_t budget_exhausted = 0;  ///< Lookups abandoned on a budget.
  uint64_t dead_entry_evictions = 0;  ///< Stale entries reported for eviction.

  void Accumulate(const overlay::RouteResult& route) {
    ++lookups;
    if (route.success) ++delivered;
    if (route.retries > 0) ++retried_lookups;
    retries += static_cast<uint64_t>(route.retries);
    dropped_forwards += static_cast<uint64_t>(route.dropped_forwards);
    failstop_skips += static_cast<uint64_t>(route.failstop_skips);
    stale_forwards += static_cast<uint64_t>(route.stale_forwards);
    if (route.budget_exhausted) ++budget_exhausted;
    dead_entry_evictions += route.dead_evictions.size();
  }

  void Merge(const ResilienceStats& other) {
    lookups += other.lookups;
    delivered += other.delivered;
    retried_lookups += other.retried_lookups;
    retries += other.retries;
    dropped_forwards += other.dropped_forwards;
    failstop_skips += other.failstop_skips;
    stale_forwards += other.stale_forwards;
    budget_exhausted += other.budget_exhausted;
    dead_entry_evictions += other.dead_entry_evictions;
  }

  double SuccessRate() const {
    return lookups == 0 ? 1.0
                        : static_cast<double>(delivered) /
                              static_cast<double>(lookups);
  }
};

/// One node's end-of-run frequency view, captured when
/// ExperimentConfig::capture_freq_snapshots is set: the exact Snapshot the
/// selector would see plus the node's core neighbor set — everything Eq. 1
/// needs to re-price an arbitrary auxiliary set against this node's
/// observed popularity. Destination frequencies are routing-independent
/// (a lookup's responsible node is a function of the key alone), so an
/// exact run's captures price any same-workload run's selections.
struct FreqSnapshotCapture {
  uint64_t node_id = 0;
  std::vector<auxsel::PeerFreq> peers;
  std::vector<uint64_t> core_ids;
};

/// Result of one run (one selector policy).
struct RunResult {
  double avg_hops = 0.0;
  double success_rate = 1.0;
  uint64_t queries = 0;
  Histogram hop_histogram{64};
  /// Auxiliary set installed on each node after the (last) selection pass,
  /// sorted by node id. Lets tests assert that parallel and serial runs
  /// made identical selections.
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> node_auxiliaries;
  /// Wall-clock phase timings (seconds); the selection phase is the target
  /// of the parallel engine.
  double warmup_seconds = 0.0;
  double selection_seconds = 0.0;
  double measure_seconds = 0.0;
  /// Observability (docs/OBSERVABILITY.md). Forwarding-hop totals over the
  /// successful measured lookups, split core vs auxiliary: the aux-hit
  /// rate is the fraction of forwarding decisions that went through a
  /// peer-cache auxiliary entry.
  uint64_t total_route_hops = 0;
  uint64_t aux_route_hops = 0;
  double aux_hit_rate = 0.0;
  /// Eq. 1 cost-model audit entries, ascending node id. Populated for
  /// kOptimal runs (the only policy whose selector predicts a cost).
  std::vector<CostAuditEntry> cost_audit;
  /// Sampled per-hop route traces (config.trace_sample_period), merged in
  /// node order so output is identical at every thread count.
  std::vector<RouteTrace> traces;
  /// One entry per churn recompute round on the incremental maintenance
  /// path (empty for stable runs and non-optimal policies); the telemetry
  /// document's "maintenance" block.
  std::vector<MaintenanceRoundStats> maintenance_rounds;
  /// Resilience accounting of the measured lookups; all zero unless
  /// config.faults is enabled.
  ResilienceStats resilience;
  /// Log-bucketed end-to-end lookup latencies (milliseconds) over every
  /// measured lookup, merged in node/index order so percentiles are
  /// thread-count invariant; empty unless config.latency is enabled.
  LogHistogram latency_histogram;
  /// The overlay's end-of-run footprint, captured only under
  /// config.report_memory. Arena mutations happen only on serial paths, so
  /// it is thread-count invariant.
  overlay::StoreMemoryStats memory;
  /// Mean modeled per-node frequency-summary footprint
  /// (FrequencyTable::SummaryMemoryBytes) and mean tracked-peer count at
  /// the end of the run, computed serially over live nodes in id order in
  /// every frequency mode.
  double freq_summary_bytes_mean = 0.0;
  double freq_tracked_mean = 0.0;
  /// Per-node frequency captures (config.capture_freq_snapshots), ascending
  /// node id. Bench-only; never serialized.
  std::vector<FreqSnapshotCapture> freq_snapshots;
};

/// Side-by-side comparison at identical seeds/workload.
struct Comparison {
  RunResult none;  ///< Core neighbors only (no auxiliary pointers).
  RunResult oblivious;
  RunResult optimal;
  /// The paper's performance metric: percentage reduction in average hops
  /// versus the frequency-oblivious scheme.
  double improvement_pct = 0.0;
  /// Reduction versus core-only routing (context for the metric above: our
  /// oblivious baseline is stronger than the paper's, see EXPERIMENTS.md).
  double improvement_vs_none_pct = 0.0;
};

/// improvement = 100 * (oblivious - optimal) / oblivious.
double ImprovementPct(double oblivious_hops, double optimal_hops);

/// Heterogeneous auxiliary budgets (config.budget_gamma > 0): distributes
/// the global budget ids.size() * config.k across nodes proportionally to
/// c_i^budget_gamma, where c_i is a Pareto(1.5) capacity derived from
/// MixHash64(SplitSeed(budget_seed, id)) — heavier gamma concentrates the
/// budget on the most capable nodes (Sarshar & Roychowdhury,
/// arXiv:cs/0210010). Returns one budget per entry of `ids` (aligned);
/// budgets are non-negative, capped at ids.size() - 1 (a node cannot point
/// at more peers than exist), and apportioned by largest remainder with
/// deterministic id-order tie-breaking, so the result is a pure function of
/// (config, ids) regardless of the order ids arrive in. With
/// budget_gamma == 0 every node gets exactly config.k.
std::vector<int> ComputeAuxiliaryBudgets(const ExperimentConfig& config,
                                         const std::vector<uint64_t>& ids);

}  // namespace peercache::experiments

#endif  // PEERCACHE_EXPERIMENTS_EXPERIMENT_CONFIG_H_
