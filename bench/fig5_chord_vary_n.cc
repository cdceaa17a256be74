// Reproduces paper Figure 5: Chord, percentage reduction in average lookup
// hops versus the frequency-oblivious baseline, as the overlay size n varies
// with k = log2(n), in a stable system and under heavy churn.
//
// Paper's setup: zipf(1.2) item popularity, five popularity lists assigned
// to nodes at random; churn = exponential 900 s mean alive/dead durations,
// 4 queries/s, stabilization every 25 s, auxiliary recomputation every
// 62.5 s. Paper's reported trend: improvement grows with n, up to ~57%
// stable and ~25% under churn at n = 1024.

#include <cstdio>

#include "bench_util.h"
#include "experiments/generic_experiment.h"

namespace {

using peercache::CeilLog2;
using peercache::bench::AveragedRow;
using peercache::bench::BenchArgs;
using peercache::bench::FigureRow;
using peercache::bench::PrintFigureHeader;
using peercache::bench::PrintFigureRow;
using namespace peercache::experiments;

const char* PaperReference(int n, bool churn) {
  if (!churn) {
    switch (n) {
      case 128:
        return "~40%";
      case 256:
        return "~45%";
      case 512:
        return "~52%";
      case 1024:
        return "~57%";
    }
  } else {
    switch (n) {
      case 128:
        return "~10%";
      case 256:
        return "~15%";
      case 512:
        return "~20%";
      case 1024:
        return "~25%";
    }
  }
  return "-";
}

ExperimentConfig MakeConfig(uint64_t seed, int n,
                            const peercache::bench::BenchArgs& args) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.n_nodes = n;
  cfg.k = CeilLog2(static_cast<uint64_t>(n));
  cfg.alpha = 1.2;
  cfg.n_items = static_cast<size_t>(n);
  cfg.n_popularity_lists = 5;  // per-node rankings, paper's Chord setup
  cfg.warmup_queries_per_node = args.quick ? 100 : 300;
  cfg.measure_queries_per_node = args.quick ? 100 : 200;
  cfg.threads = args.threads;
  args.ApplyObservability(cfg);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  peercache::bench::FigureJson json("fig5_chord_vary_n", "chord", args);
  peercache::bench::TraceLog traces("chord");
  const int sizes[] = {128, 256, 512, 1024};

  PrintFigureHeader("Figure 5 — Chord: improvement vs n (k = log2 n), stable",
                    "n");
  for (int n : sizes) {
    if (args.quick && n > 256) continue;
    auto compare = [&](uint64_t seed) {
      return CompareStable<ChordPolicy>(MakeConfig(seed, n, args));
    };
    char label[64];
    std::snprintf(label, sizeof(label), "n=%-5d stable", n);
    FigureRow row = AveragedRow(args, compare, label,
                                PaperReference(n, /*churn=*/false));
    PrintFigureRow(row);
    traces.AddRow(row);
    json.AddRow(row, "stable", MakeConfig(args.base_seed, n, args));
  }

  PrintFigureHeader(
      "\nFigure 5 — Chord: improvement vs n (k = log2 n), high churn", "n");
  for (int n : sizes) {
    if (args.quick && n > 256) continue;
    auto compare = [&](uint64_t seed) {
      ChurnConfig churn;  // paper's parameters by default
      churn.warmup_s = args.quick ? 1200 : 3600;
      churn.measure_s = args.quick ? 1200 : 3600;
      return CompareChurn<ChordPolicy>(MakeConfig(seed, n, args), churn);
    };
    char label[64];
    std::snprintf(label, sizeof(label), "n=%-5d churn", n);
    FigureRow row = AveragedRow(args, compare, label,
                                PaperReference(n, /*churn=*/true));
    PrintFigureRow(row);
    traces.AddRow(row);
    json.AddRow(row, "churn", MakeConfig(args.base_seed, n, args));
  }
  const int json_rc = json.WriteIfRequested(args);
  const int trace_rc = traces.WriteIfRequested(args);
  return json_rc != 0 ? json_rc : trace_rc;
}
