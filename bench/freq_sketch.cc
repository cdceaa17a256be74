// Bounded-memory frequency-summary sweep: for each overlay, runs the
// stable-mode optimal policy with exact frequency tables and with
// space-saving + count-min sketch tables at several memory tiers, plus
// popularity-drift workloads (rank-shuffle, flash-crowd) and a
// heterogeneous-budget companion sweep (the global auxiliary budget n*k
// redistributed across Pareto node capacities, after Sarshar &
// Roychowdhury, arXiv:cs/0210010). Every variant's installed auxiliary
// sets are re-priced under the exact baseline's captured frequencies, so
// the Eq. 1 column compares selection quality on the true observed
// popularity rather than on each table's own (truncated) view — see
// bench/freq_sketch_scenario.h.
//
//   $ ./freq_sketch                          # full sweep, all overlays
//   $ ./freq_sketch --quick                  # baseline + headline tier only
//   $ ./freq_sketch --json-out results/freq_sketch.json
//
// `--threads T` shards the per-node phases; every reported field except
// the "timing" sub-object is identical at any thread count
// (tests/experiments/freq_sketch_golden_test.cc replays the committed
// stable rows at threads 1 and 4). The other lookup-run flags (`--seeds`,
// `--fault-*`, `--latency-*`, `--trace-*`, `--profile`) are refused with
// exit status 2: the sweep's runs apply none of them.
//
// The run enforces the headline acceptance gates at generation time: on
// every overlay the headline tier must fit in 1/16 of the exact per-node
// summary bytes while staying within 2% mean hops and 5% Eq. 1 cost of
// exact on the stable workload. A violation still prints and writes the
// document, but the process exits nonzero — a gate-failing document is not
// meant to be committed.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "experiments/json_report.h"
#include "freq_sketch_scenario.h"

namespace {

using namespace peercache;
using namespace peercache::bench;
using namespace peercache::experiments;

void PrintRow(const FreqSketchRow& row) {
  std::printf(
      "%-9s %-15s %-12s g=%.2f  hops=%6.4f (%+.2f%%)  eq1=%7.4f (%+.2f%%)  "
      "%8.1f B/node (x%.3f)  tracked=%.1f\n",
      row.system.c_str(), row.variant.c_str(), row.workload.c_str(),
      row.budget_gamma, row.mean_hops, row.hops_delta_pct, row.eq1_cost,
      row.cost_delta_pct, row.freq_bytes_per_node, row.memory_ratio,
      row.freq_tracked_per_node);
}

void AddRowJson(JsonWriter& w, const FreqSketchRow& row) {
  w.BeginObject();
  w.Key("system");
  w.String(row.system);
  w.Key("variant");
  w.String(row.variant);
  w.Key("workload");
  w.String(row.workload);
  w.Key("budget_gamma");
  w.Double(row.budget_gamma);
  w.Key("top_capacity");
  w.UInt(row.top_capacity);
  w.Key("cm_width");
  w.UInt(row.cm_width);
  w.Key("cm_depth");
  w.Int(row.cm_depth);
  w.Key("mean_hops");
  w.Double(row.mean_hops);
  w.Key("success_rate");
  w.Double(row.success_rate);
  w.Key("eq1_cost");
  w.Double(row.eq1_cost);
  w.Key("freq_bytes_per_node");
  w.Double(row.freq_bytes_per_node);
  w.Key("freq_tracked_per_node");
  w.Double(row.freq_tracked_per_node);
  w.Key("memory_ratio");
  w.Double(row.memory_ratio);
  w.Key("hops_delta_pct");
  w.Double(row.hops_delta_pct);
  w.Key("cost_delta_pct");
  w.Double(row.cost_delta_pct);
  // Wall-clock block: determinism comparisons (CI's threads-1-vs-4 diff)
  // strip this sub-object, like phase_seconds elsewhere.
  w.Key("timing");
  w.BeginObject();
  w.Key("warmup_seconds");
  w.Double(row.warmup_seconds);
  w.Key("selection_seconds");
  w.Double(row.selection_seconds);
  w.Key("measure_seconds");
  w.Double(row.measure_seconds);
  w.EndObject();
  w.EndObject();
}

/// Checks the stable-workload headline tier against the acceptance gates.
/// Returns false (and prints why) on a violation.
bool CheckGates(const FreqSketchRow& headline) {
  bool ok = true;
  if (headline.memory_ratio > kFreqSketchMemoryGate) {
    std::fprintf(stderr,
                 "GATE: %s headline memory ratio %.4f exceeds %.4f\n",
                 headline.system.c_str(), headline.memory_ratio,
                 kFreqSketchMemoryGate);
    ok = false;
  }
  if (headline.hops_delta_pct > kFreqSketchHopsGatePct ||
      headline.hops_delta_pct < -kFreqSketchHopsGatePct) {
    std::fprintf(stderr, "GATE: %s headline hops delta %+.2f%% exceeds %.1f%%\n",
                 headline.system.c_str(), headline.hops_delta_pct,
                 kFreqSketchHopsGatePct);
    ok = false;
  }
  if (headline.cost_delta_pct > kFreqSketchCostGatePct ||
      headline.cost_delta_pct < -kFreqSketchCostGatePct) {
    std::fprintf(stderr,
                 "GATE: %s headline Eq.1 cost delta %+.2f%% exceeds %.1f%%\n",
                 headline.system.c_str(), headline.cost_delta_pct,
                 kFreqSketchCostGatePct);
    ok = false;
  }
  return ok;
}

template <typename Policy>
bool SweepSystem(const BenchArgs& args, std::vector<FreqSketchRow>& rows) {
  const uint64_t seed = args.base_seed;
  const int threads = args.threads;

  // Stable workload: exact baseline, then every sketch tier.
  FreqSketchBaseline base = MeasureFreqSketchBaseline<Policy>(
      seed, threads, workload::DriftKind::kNone);
  PrintRow(base.row);
  rows.push_back(base.row);

  bool gates_ok = true;
  for (int t = 0; t < kFreqSketchTierCount; ++t) {
    if (args.quick && t != kFreqSketchHeadlineTier) continue;
    const FreqSketchTier& tier = kFreqSketchTiers[t];
    FreqSketchRow row = MeasureFreqSketchVariant<Policy>(
        seed, threads, base, tier.label, TierParams(tier),
        workload::DriftKind::kNone, 0.0);
    PrintRow(row);
    if (t == kFreqSketchHeadlineTier) gates_ok = CheckGates(row);
    rows.push_back(std::move(row));
  }

  if (!args.quick) {
    // Heterogeneous budgets: same workload and exact tables, global budget
    // n*k redistributed toward high-capacity nodes. Priced under the same
    // baseline captures (frequencies are selection-independent).
    for (double gamma : {0.75, 1.5}) {
      char label[32];
      std::snprintf(label, sizeof(label), "budget-g%.2f", gamma);
      FreqSketchRow row = MeasureFreqSketchVariant<Policy>(
          seed, threads, base, label, {}, workload::DriftKind::kNone, gamma);
      PrintRow(row);
      rows.push_back(std::move(row));
    }

    // Drift workloads: exact vs the headline tier under each drift kind,
    // priced under that drift's own exact captures.
    for (workload::DriftKind kind : {workload::DriftKind::kRankShuffle,
                                     workload::DriftKind::kFlashCrowd}) {
      FreqSketchBaseline drift_base =
          MeasureFreqSketchBaseline<Policy>(seed, threads, kind);
      PrintRow(drift_base.row);
      rows.push_back(drift_base.row);
      const FreqSketchTier& tier = kFreqSketchTiers[kFreqSketchHeadlineTier];
      FreqSketchRow row = MeasureFreqSketchVariant<Policy>(
          seed, threads, drift_base, tier.label, TierParams(tier), kind, 0.0);
      PrintRow(row);
      rows.push_back(std::move(row));
    }
  }
  return gates_ok;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args =
      BenchArgs::Parse(argc, argv, kLookupRunFlagsButThreads);

  std::printf(
      "freq sketch sweep: n=%d, items=%zu, lists=%d, warmup=%d, measure=%d, "
      "seed=%llu, threads=%d%s\n\n",
      kFreqSketchNodes, kFreqSketchItems, kFreqSketchLists, kFreqSketchWarmup,
      kFreqSketchMeasure, static_cast<unsigned long long>(args.base_seed),
      args.threads, args.quick ? " (quick)" : "");

  std::vector<FreqSketchRow> rows;
  bool gates_ok = true;
  gates_ok &= SweepSystem<ChordPolicy>(args, rows);
  gates_ok &= SweepSystem<PastryPolicy>(args, rows);
  gates_ok &= SweepSystem<KademliaPolicy>(args, rows);

  if (!args.json_out.empty()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema_version");
    w.Int(kTelemetrySchemaVersion);
    w.Key("generator");
    w.String("freq_sketch");
    w.Key("kind");
    w.String("freq_sketch");
    w.Key("base_seed");
    w.UInt(args.base_seed);
    w.Key("quick");
    w.Bool(args.quick);
    w.Key("n_nodes");
    w.Int(kFreqSketchNodes);
    w.Key("n_items");
    w.UInt(kFreqSketchItems);
    w.Key("warmup_queries_per_node");
    w.Int(kFreqSketchWarmup);
    w.Key("measure_queries_per_node");
    w.Int(kFreqSketchMeasure);
    w.Key("drift_period");
    w.Int(kFreqSketchDriftPeriod);
    w.Key("rows");
    w.BeginArray();
    for (const FreqSketchRow& row : rows) AddRowJson(w, row);
    w.EndArray();
    w.EndObject();
    Status st = WriteStringToFile(args.json_out, w.TakeString() + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "json-out failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\nfreq-sketch telemetry written to %s\n",
                args.json_out.c_str());
  }

  if (!gates_ok) {
    std::fprintf(stderr,
                 "\nheadline gate violation: do not commit this document\n");
    return 1;
  }
  return 0;
}
