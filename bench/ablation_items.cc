// Ablation — workload sensitivity the paper leaves unspecified: how does
// the improvement depend on the size of the item universe relative to the
// overlay size? Fewer items concentrate more query mass on fewer peers,
// making k pointers cover a larger fraction of the traffic.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "experiments/generic_experiment.h"

namespace {

using peercache::bench::AveragedRow;
using peercache::bench::BenchArgs;
using peercache::bench::FigureRow;
using namespace peercache::experiments;

ExperimentConfig MakeConfig(int n, int k, double ratio, int lists,
                            const BenchArgs& args) {
  ExperimentConfig cfg = args.BaseConfig();
  cfg.n_nodes = n;
  cfg.k = k;
  cfg.alpha = 1.2;
  cfg.n_items = static_cast<size_t>(ratio * n);
  cfg.n_popularity_lists = lists;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  peercache::bench::FigureJson json("ablation_items", "chord+pastry", args);
  peercache::bench::TraceLog traces;
  const int n = args.quick ? 256 : 512;
  const int k = args.quick ? 8 : 9;

  std::printf(
      "Ablation — item-universe size vs improvement (n=%d, k=%d, zipf "
      "1.2)\n",
      n, k);
  std::printf("%-12s %16s %16s\n", "items/nodes", "chord improv",
              "pastry improv");
  std::printf("%s\n", std::string(46, '-').c_str());

  for (double ratio : {0.25, 0.5, 1.0, 4.0, 16.0}) {
    const ExperimentConfig chord_config = MakeConfig(n, k, ratio, 5, args);
    const ExperimentConfig pastry_config = MakeConfig(n, k, ratio, 1, args);
    char label[64];
    std::snprintf(label, sizeof(label), "chord items/n=%.2f", ratio);
    FigureRow chord = AveragedRow(
        args,
        [&](uint64_t seed) {
          ExperimentConfig seeded = chord_config;
          seeded.seed = seed;
          return CompareStable<ChordPolicy>(seeded);
        },
        label, "-");
    std::snprintf(label, sizeof(label), "pastry items/n=%.2f", ratio);
    FigureRow pastry = AveragedRow(
        args,
        [&](uint64_t seed) {
          ExperimentConfig seeded = pastry_config;
          seeded.seed = seed;
          return CompareStable<PastryPolicy>(seeded);
        },
        label, "-");
    if (!chord.detail.has_value() || !pastry.detail.has_value()) continue;
    std::printf("%-12.2f %14.1f %% %14.1f %%\n", ratio, chord.improvement_pct,
                pastry.improvement_pct);
    traces.AddRow(chord, "chord");
    traces.AddRow(pastry, "pastry");
    json.AddRow(chord, "stable", chord_config);
    json.AddRow(pastry, "stable", pastry_config);
  }
  const int json_rc = json.WriteIfRequested(args);
  const int trace_rc = traces.WriteIfRequested(args);
  return json_rc != 0 ? json_rc : trace_rc;
}
