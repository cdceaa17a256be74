// Million-node scale frontier: sweeps each overlay from 2^14 to 2^20 nodes
// and reports, per (overlay, n) point, bytes per node out of the
// NodeStore/FlatTableArena accounting, mean hops against the 0.5*log2(n)
// yardstick, the routing checksum and the build time. The unbatched
// LookupInto reference loop and the batched prefetch-pipelined cursor
// engine route the identical job list and must agree on every outcome (the
// run aborts on a checksum mismatch), so the committed
// results/scale_frontier.json doubles as a certification artifact for the
// batched engine — tests/experiments/scale_frontier_golden_test.cc replays
// its n=2^14 rows byte-for-byte. Direct and batched lookups/s are measured
// by the perf ledger's route_scale workload, not here.
//
//   $ ./scale_frontier                      # full sweep, n up to 2^20
//   $ ./scale_frontier --quick              # n=2^16 only (CI scale-smoke)
//   $ ./scale_frontier --json-out results/scale_frontier.json
//
// `--threads T` shards the batched pass's job list across T workers
// (0 = all hardware threads, 1 = serial); per-job results land in global
// job order, so every reported field except the "timing" sub-object is
// identical at any thread count. The other lookup-run flags (`--seeds`,
// `--fault-*`, `--latency-*`, `--trace-*`, `--profile`) are refused with
// exit status 2: the sweep's lookups apply none of them.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "experiments/json_report.h"
#include "scale_scenario.h"

namespace {

using namespace peercache;
using namespace peercache::bench;
using namespace peercache::experiments;

void PrintRow(const ScaleRow& row) {
  std::printf(
      "%-9s n=2^%-2d hops=%6.3f (%.2fx log-pred)  %7.1f B/node  "
      "build %.1fs\n",
      row.system.c_str(), row.log2_n, row.mean_hops, row.hops_vs_predicted,
      row.bytes_per_node, row.build_seconds);
}

void AddRowJson(JsonWriter& w, const ScaleRow& row) {
  w.BeginObject();
  w.Key("system");
  w.String(row.system);
  w.Key("log2_n");
  w.Int(row.log2_n);
  w.Key("n_nodes");
  w.UInt(row.n_nodes);
  w.Key("lookups");
  w.UInt(row.lookups);
  w.Key("mean_hops");
  w.Double(row.mean_hops);
  w.Key("success_rate");
  w.Double(row.success_rate);
  w.Key("predicted_hops");
  w.Double(row.predicted_hops);
  w.Key("hops_vs_predicted");
  w.Double(row.hops_vs_predicted);
  w.Key("checksum");
  w.String([&] {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(row.checksum));
    return std::string(buf);
  }());
  w.Key("memory");
  w.BeginObject();
  w.Key("bytes_per_node");
  w.Double(row.bytes_per_node);
  w.Key("table_bytes");
  w.UInt(row.table_bytes);
  w.Key("arena_bytes");
  w.UInt(row.arena_bytes);
  w.EndObject();
  // Wall-clock block: determinism comparisons (CI's threads-1-vs-4 diff)
  // strip this sub-object, like phase_seconds elsewhere.
  w.Key("timing");
  w.BeginObject();
  w.Key("build_seconds");
  w.Double(row.build_seconds);
  w.EndObject();
  w.EndObject();
}

template <typename Policy>
void SweepSystem(const std::vector<int>& exps, uint64_t lookups,
                 uint64_t seed, ThreadPool* pool,
                 std::vector<ScaleRow>& rows) {
  for (int e : exps) {
    ScaleRow row = MeasureScalePoint<Policy>(e, lookups, seed, pool);
    if (!row.checksums_agree) {
      std::fprintf(stderr,
                   "FATAL: batched/unbatched outcome mismatch at %s n=2^%d\n",
                   row.system.c_str(), e);
      std::exit(1);
    }
    PrintRow(row);
    rows.push_back(std::move(row));
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv, kLookupRunFlagsButThreads);
  const std::vector<int> exps =
      args.quick ? std::vector<int>{16} : std::vector<int>{14, 16, 18, 20};
  const uint64_t lookups = args.quick ? uint64_t{1} << 15 : uint64_t{1} << 17;
  ThreadPool pool(args.threads);

  std::printf("scale frontier: n in {");
  for (size_t i = 0; i < exps.size(); ++i) {
    std::printf("%s2^%d", i ? ", " : "", exps[i]);
  }
  std::printf("}, %llu lookups/point, window=%d, seed=%llu, threads=%d\n\n",
              static_cast<unsigned long long>(lookups), kScaleWindow,
              static_cast<unsigned long long>(args.base_seed),
              pool.num_threads());

  std::vector<ScaleRow> rows;
  SweepSystem<ChordPolicy>(exps, lookups, args.base_seed, &pool, rows);
  SweepSystem<PastryPolicy>(exps, lookups, args.base_seed, &pool, rows);
  SweepSystem<KademliaPolicy>(exps, lookups, args.base_seed, &pool, rows);

  if (!args.json_out.empty()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema_version");
    w.Int(kTelemetrySchemaVersion);
    w.Key("generator");
    w.String("scale_frontier");
    w.Key("kind");
    w.String("scale_frontier");
    w.Key("base_seed");
    w.UInt(args.base_seed);
    w.Key("quick");
    w.Bool(args.quick);
    w.Key("window");
    w.Int(kScaleWindow);
    w.Key("stabilize_sample");
    w.Int(kScaleStabilizeSample);
    w.Key("rows");
    w.BeginArray();
    for (const ScaleRow& row : rows) AddRowJson(w, row);
    w.EndArray();
    w.EndObject();
    Status st = WriteStringToFile(args.json_out, w.TakeString() + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "json-out failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nscale-frontier telemetry written to %s\n",
                args.json_out.c_str());
  }
  return 0;
}
