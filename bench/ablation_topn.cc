// Ablation (paper Sec. III, implementation considerations): how much
// solution quality is lost when a node tracks only the top-n most frequent
// peers with a Space-Saving summary instead of exact counts?
//
// Runs the stable Chord experiment with decreasing frequency-table
// capacities. The expected shape: zipf concentration makes small summaries
// nearly free — most of the benefit of auxiliary caching survives even with
// a capacity of a few dozen entries.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "experiments/generic_experiment.h"

namespace {

using peercache::bench::AveragedRow;
using peercache::bench::BenchArgs;
using peercache::bench::FigureRow;
using namespace peercache::experiments;

ExperimentConfig MakeConfig(size_t capacity, const BenchArgs& args) {
  ExperimentConfig cfg = args.BaseConfig();
  cfg.n_nodes = 512;
  cfg.k = 9;
  cfg.alpha = 1.2;
  cfg.n_items = 512;
  cfg.n_popularity_lists = 5;
  cfg.frequency_capacity = capacity;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  peercache::bench::FigureJson json("ablation_topn", "chord", args);
  peercache::bench::TraceLog traces;

  std::printf(
      "Ablation — frequency-table capacity (Space-Saving top-n) vs lookup "
      "improvement\nChord stable, n=512, k=9, alpha=1.2\n");
  std::printf("%-12s %12s %12s %14s\n", "capacity", "oblivious", "optimal",
              "improvement");
  std::printf("%s\n", std::string(56, '-').c_str());

  for (size_t capacity : {size_t{8}, size_t{16}, size_t{32}, size_t{64},
                          size_t{128}, size_t{0}}) {
    const ExperimentConfig config = MakeConfig(capacity, args);
    auto compare = [&](uint64_t seed) {
      ExperimentConfig seeded = config;
      seeded.seed = seed;
      return CompareStable<ChordPolicy>(seeded);
    };
    char cap_label[32];
    if (capacity == 0) {
      std::snprintf(cap_label, sizeof(cap_label), "exact");
    } else {
      std::snprintf(cap_label, sizeof(cap_label), "%zu", capacity);
    }
    FigureRow row = AveragedRow(args, compare, cap_label, "-");
    if (!row.detail.has_value()) continue;
    std::printf("%-12s %9.3f hp %9.3f hp %12.1f %%\n", cap_label,
                row.oblivious_hops, row.optimal_hops, row.improvement_pct);
    traces.AddRow(row, "chord");
    json.AddRow(row, "stable", config);
  }
  const int json_rc = json.WriteIfRequested(args);
  const int trace_rc = traces.WriteIfRequested(args);
  return json_rc != 0 ? json_rc : trace_rc;
}
