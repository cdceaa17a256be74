#ifndef PEERCACHE_BENCH_SCALE_SCENARIO_H_
#define PEERCACHE_BENCH_SCALE_SCENARIO_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "experiments/batch_engine.h"
#include "experiments/generic_experiment.h"
#include "experiments/overlay_policy.h"
#include "pastry/pastry_network.h"

/// The scale-frontier scenario shared by bench/scale_frontier and
/// tests/experiments/scale_frontier_golden_test: build one overlay at
/// n = 2^log2_n via BulkAdd + StabilizeAll, route the same precomputed
/// job list twice — once through the unbatched LookupInto reference loop,
/// once through the batched cursor engine — and report build time, memory
/// footprint, and routing outcomes. The two passes must agree on every
/// routing outcome (checksum equality is asserted by both callers), so the
/// committed document certifies the batched engine against the reference
/// semantics at every scale point. Routing throughput, direct and batched,
/// is the perf ledger's (bench/perf_ledger, workload route_scale): timing
/// the two passes here would divide a pool-sharded batched pass by a
/// one-thread loop, which measures threads times batching.
namespace peercache::bench {

/// In-flight lookup window of the batched pass. 16 suspended routes keep
/// roughly one table-slice miss per route in flight without thrashing the
/// L1 with cursor state.
inline constexpr int kScaleWindow = 16;

/// Pastry row-fill sampling for the frontier builds (PastryParams::
/// stabilize_sample): exact per-row scans are O(n) per node and quadratic
/// per build, which is prohibitive at 2^20 nodes. 16 evenly spaced probes
/// per row keep build time O(n * bits * 16) at a small cost in row-entry
/// proximity. Fixed here so the bench and the golden replay agree.
inline constexpr int kScaleStabilizeSample = 16;

struct ScaleRow {
  std::string system;
  int log2_n = 0;
  uint64_t n_nodes = 0;
  uint64_t lookups = 0;
  // Deterministic outcome fields (byte-compared by the golden test).
  double mean_hops = 0;
  double success_rate = 0;
  uint64_t checksum = 0;       ///< FoldChecksum's job-order fold.
  double predicted_hops = 0;   ///< 0.5 * log2(n), the O(log n) yardstick.
  double hops_vs_predicted = 0;
  // Memory accounting: exact allocated bytes.
  double bytes_per_node = 0;
  uint64_t table_bytes = 0;
  uint64_t arena_bytes = 0;
  // Wall-clock field (the row's "timing" sub-object; never compared).
  double build_seconds = 0;
  bool checksums_agree = false;
};

/// Draws the job list: uniform live origins and uniform keys from one
/// stream split off the measurement seed.
inline std::vector<experiments::LookupJob> MakeScaleJobs(
    const std::vector<uint64_t>& live, int bits, uint64_t measure_seed,
    uint64_t lookups) {
  Rng rng(SplitSeed(measure_seed, 0x10095));
  const uint64_t space = uint64_t{1} << bits;
  std::vector<experiments::LookupJob> jobs(lookups);
  for (uint64_t q = 0; q < lookups; ++q) {
    jobs[q].origin = live[static_cast<size_t>(rng.UniformU64(live.size()))];
    jobs[q].key = rng.UniformU64(space);
  }
  return jobs;
}

/// Network construction for the frontier: the policy's standard config
/// mapping, except Pastry gets the sampled row fill (exact scans are
/// quadratic per build at this scale).
template <typename Policy>
typename Policy::Network MakeScaleNetwork(
    const experiments::ExperimentConfig& cfg,
    const experiments::SeedPlan& seeds) {
  if constexpr (std::is_same_v<Policy, experiments::PastryPolicy>) {
    pastry::PastryParams params;
    params.bits = cfg.bits;
    params.frequency_capacity = cfg.frequency_capacity;
    params.leaf_set_half = cfg.leaf_set_half;
    params.stabilize_sample = kScaleStabilizeSample;
    return typename Policy::Network(params, seeds.coords);
  } else {
    return Policy::MakeNetwork(cfg, seeds);
  }
}

/// One frontier point: build, route the job list unbatched then batched,
/// fold both checksums, capture memory. `pool` may be null (serial batched
/// pass); outcomes are identical either way.
template <typename Policy>
ScaleRow MeasureScalePoint(int log2_n, uint64_t lookups, uint64_t seed,
                           ThreadPool* pool) {
  using Clock = std::chrono::steady_clock;

  experiments::ExperimentConfig cfg;
  cfg.n_nodes = 1 << log2_n;
  cfg.seed = seed;
  const experiments::SeedPlan seeds = Policy::MakeSeedPlan(seed);
  typename Policy::Network net = MakeScaleNetwork<Policy>(cfg, seeds);

  ScaleRow row;
  row.system = Policy::kName;
  row.log2_n = log2_n;
  row.n_nodes = uint64_t{1} << log2_n;
  row.lookups = lookups;

  const auto build_start = Clock::now();
  const std::vector<uint64_t> node_ids =
      experiments::SampleNodeIds(cfg, seeds.ids);
  if (auto s = net.BulkAdd(node_ids); !s.ok()) {
    std::fprintf(stderr, "BulkAdd failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  net.StabilizeAll();
  row.build_seconds =
      std::chrono::duration<double>(Clock::now() - build_start).count();

  const std::vector<uint64_t> live = net.LiveNodeIds();
  const std::vector<experiments::LookupJob> jobs =
      MakeScaleJobs(live, cfg.bits, seeds.measure, lookups);

  // Unbatched reference pass: one LookupInto per job.
  uint64_t ref_checksum = 0, ref_hops = 0, ref_successes = 0;
  overlay::RouteResult route;
  for (const experiments::LookupJob& job : jobs) {
    if (auto s = net.LookupInto(job.origin, job.key, route); !s.ok()) {
      continue;
    }
    ref_hops += static_cast<uint64_t>(route.hops);
    ref_successes += route.success ? 1 : 0;
    ref_checksum = MixHash64(ref_checksum ^ route.destination ^
                             (static_cast<uint64_t>(route.hops) << 32));
  }

  // Batched pass over the same jobs.
  std::vector<experiments::BatchLookupResult> results(jobs.size());
  if (pool != nullptr) {
    experiments::RunBatchedLookups(*pool, net, jobs, kScaleWindow, results);
  } else {
    experiments::RunBatchedLookups(net, jobs, kScaleWindow, results);
  }
  const experiments::BatchSummary batched = experiments::FoldChecksum(results);

  row.checksum = ref_checksum;
  row.checksums_agree = batched.checksum == ref_checksum &&
                        batched.sum_hops == ref_hops &&
                        batched.successes == ref_successes;
  row.mean_hops = lookups > 0 ? static_cast<double>(ref_hops) /
                                    static_cast<double>(lookups)
                              : 0;
  row.success_rate = lookups > 0 ? static_cast<double>(ref_successes) /
                                       static_cast<double>(lookups)
                                 : 0;
  row.predicted_hops = 0.5 * log2_n;
  row.hops_vs_predicted =
      row.predicted_hops > 0 ? row.mean_hops / row.predicted_hops : 0;

  const overlay::StoreMemoryStats mem = net.MemoryUsage();
  row.bytes_per_node = mem.bytes_per_node;
  row.table_bytes = mem.table_bytes;
  row.arena_bytes = mem.arena_bytes;
  return row;
}

}  // namespace peercache::bench

#endif  // PEERCACHE_BENCH_SCALE_SCENARIO_H_
