// Reproduces paper Figure 6: Chord, percentage reduction in average lookup
// hops versus the frequency-oblivious baseline, as the auxiliary budget k
// varies over {log n, 2 log n, 3 log n} at n = 1024, stable and under churn.
//
// Paper's reported trend: improvement *decreases* with k (churn: ~26% at
// k = log n down to ~17% at k = 3 log n) — with more pointers, random
// choices get luckier, and under churn a larger auxiliary set accumulates
// more stale entries between recomputations.

#include <cstdio>

#include "bench_util.h"
#include "experiments/generic_experiment.h"

namespace {

using peercache::bench::AveragedRow;
using peercache::bench::BenchArgs;
using peercache::bench::FigureRow;
using peercache::bench::PrintFigureHeader;
using peercache::bench::PrintFigureRow;
using namespace peercache::experiments;

const char* PaperReference(int multiple, bool churn) {
  if (!churn) {
    switch (multiple) {
      case 1:
        return "~57%";
      case 2:
        return "~50%";
      case 3:
        return "~45%";
    }
  } else {
    switch (multiple) {
      case 1:
        return "~26%";
      case 2:
        return "~21%";
      case 3:
        return "~17%";
    }
  }
  return "-";
}

ExperimentConfig MakeConfig(uint64_t seed, int k,
                            const peercache::bench::BenchArgs& args) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.n_nodes = 1024;
  cfg.k = k;
  cfg.alpha = 1.2;
  cfg.n_items = 1024;
  cfg.n_popularity_lists = 5;
  cfg.warmup_queries_per_node = args.quick ? 100 : 300;
  cfg.measure_queries_per_node = args.quick ? 100 : 200;
  cfg.threads = args.threads;
  args.ApplyObservability(cfg);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  peercache::bench::FigureJson json("fig6_chord_vary_k", "chord", args);
  peercache::bench::TraceLog traces("chord");
  const int log_n = 10;

  PrintFigureHeader("Figure 6 — Chord: improvement vs k (n = 1024), stable",
                    "k");
  for (int multiple = 1; multiple <= 3; ++multiple) {
    if (args.quick && multiple == 2) continue;
    auto compare = [&](uint64_t seed) {
      return CompareStable<ChordPolicy>(MakeConfig(seed, multiple * log_n, args));
    };
    char label[64];
    std::snprintf(label, sizeof(label), "k=%dlogn=%-3d stable", multiple,
                  multiple * log_n);
    FigureRow row = AveragedRow(args, compare, label,
                                PaperReference(multiple, /*churn=*/false));
    PrintFigureRow(row);
    traces.AddRow(row);
    json.AddRow(row, "stable",
                MakeConfig(args.base_seed, multiple * log_n, args));
  }

  PrintFigureHeader(
      "\nFigure 6 — Chord: improvement vs k (n = 1024), high churn", "k");
  for (int multiple = 1; multiple <= 3; ++multiple) {
    if (args.quick && multiple == 2) continue;
    auto compare = [&](uint64_t seed) {
      ChurnConfig churn;
      churn.warmup_s = args.quick ? 1200 : 3600;
      churn.measure_s = args.quick ? 1200 : 3600;
      return CompareChurn<ChordPolicy>(MakeConfig(seed, multiple * log_n, args),
                                       churn);
    };
    char label[64];
    std::snprintf(label, sizeof(label), "k=%dlogn=%-3d churn", multiple,
                  multiple * log_n);
    FigureRow row = AveragedRow(args, compare, label,
                                PaperReference(multiple, /*churn=*/true));
    PrintFigureRow(row);
    traces.AddRow(row);
    json.AddRow(row, "churn",
                MakeConfig(args.base_seed, multiple * log_n, args));
  }
  const int json_rc = json.WriteIfRequested(args);
  const int trace_rc = traces.WriteIfRequested(args);
  return json_rc != 0 ? json_rc : trace_rc;
}
