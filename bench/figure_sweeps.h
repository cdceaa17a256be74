// The paper's Sec. VI figure sweeps (Figs. 3-6) and their Kademlia
// companions, defined as data: each figure's overlay and its sections of
// rows, every row with its label, mode, paper reference and config. The six
// figure drivers run a definition with RunFigure, and
// tests/experiments/golden_figures_test.cc checks every definition against
// the committed results/*.json and replays rows of it. Header-only so the
// drivers and the golden test cannot drift apart.

#ifndef PEERCACHE_BENCH_FIGURE_SWEEPS_H_
#define PEERCACHE_BENCH_FIGURE_SWEEPS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bits.h"
#include "experiments/generic_experiment.h"

namespace peercache::bench {

/// The overlay a figure runs on: its name in the documents and its two
/// comparisons.
struct FigurePolicy {
  const char* system;
  Result<experiments::Comparison> (*stable)(
      const experiments::ExperimentConfig&);
  Result<experiments::Comparison> (*churn)(
      const experiments::ExperimentConfig&, const experiments::ChurnConfig&);
};

template <typename Policy>
FigurePolicy PolicyOf() {
  return {Policy::kName, &experiments::CompareStable<Policy>,
          &experiments::CompareChurn<Policy>};
}

/// One row of a figure. `config` carries the base seed; each averaged seed
/// replaces it.
struct FigureRowSpec {
  std::string label;  ///< as the documents record it
  bool churn = false;  ///< runs CompareChurn, else CompareStable
  const char* paper_reference = "-";  ///< the paper's impr/obl value
  bool quick = true;  ///< --quick keeps the row
  experiments::ExperimentConfig config;

  /// The row's mode as the documents record it.
  const char* mode() const { return churn ? "churn" : "stable"; }
};

/// One printed table of a figure.
struct FigureSection {
  const char* title;
  const char* label_column;
  std::vector<FigureRowSpec> rows;
};

struct Figure {
  const char* generator;  ///< the driver's binary name
  FigurePolicy policy;
  std::vector<FigureSection> sections;
};

/// A figure's definition: builds its rows on the command line's shared
/// config base.
using FigureDefinition = Figure (*)(const BenchArgs&);

/// One curve of a sweep: the label's suffix, the zipf parameter, the mode,
/// and the paper's reported improvement over the oblivious baseline at each
/// point of the sweep (empty where the paper has no such curve).
struct Curve {
  const char* suffix;
  double alpha;
  bool churn;
  std::vector<const char*> paper;
};

/// A row's workload on the shared base: n nodes with k auxiliaries each,
/// one item per node under zipf(alpha), and `lists` popularity rankings
/// assigned to nodes at random (1 = the same ranking at every node).
inline experiments::ExperimentConfig SweepConfig(const BenchArgs& args, int n,
                                                 int k, double alpha,
                                                 int lists) {
  experiments::ExperimentConfig cfg = args.BaseConfig();
  cfg.n_nodes = n;
  cfg.k = k;
  cfg.alpha = alpha;
  cfg.n_items = static_cast<size_t>(n);
  cfg.n_popularity_lists = lists;
  return cfg;
}

/// Rows of an n sweep at k = log2 n, curve after curve; --quick keeps the
/// two smallest sizes.
inline std::vector<FigureRowSpec> SizeSweep(const BenchArgs& args,
                                            const std::vector<int>& sizes,
                                            int lists,
                                            const std::vector<Curve>& curves) {
  std::vector<FigureRowSpec> rows;
  for (const Curve& curve : curves) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      const int n = sizes[i];
      char label[64];
      std::snprintf(label, sizeof(label), "n=%-5d %s", n, curve.suffix);
      rows.push_back(
          {label, curve.churn, curve.paper.empty() ? "-" : curve.paper[i],
           i < 2,
           SweepConfig(args, n, CeilLog2(static_cast<uint64_t>(n)),
                       curve.alpha, lists)});
    }
  }
  return rows;
}

/// Rows of a k sweep at n = 1024 over k = log n, 2 log n, 3 log n, curve
/// after curve; --quick drops k = 2 log n.
inline std::vector<FigureRowSpec> BudgetSweep(
    const BenchArgs& args, int lists, const std::vector<Curve>& curves) {
  constexpr int kLogN = 10;
  std::vector<FigureRowSpec> rows;
  for (const Curve& curve : curves) {
    for (int multiple = 1; multiple <= 3; ++multiple) {
      const int k = multiple * kLogN;
      char label[64];
      std::snprintf(label, sizeof(label), "k=%dlogn=%-3d %s", multiple, k,
                    curve.suffix);
      rows.push_back({label, curve.churn,
                      curve.paper.empty() ? "-" : curve.paper[multiple - 1],
                      multiple != 2,
                      SweepConfig(args, 1 << kLogN, k, curve.alpha, lists)});
    }
  }
  return rows;
}

// Figures 3 and 4 (Pastry) give every node the same popularity ranking;
// Figures 5 and 6 (Chord) draw each node's ranking from five lists at
// random, the paper's Chord setup. The Kademlia sweeps mirror the Pastry
// setup at alpha = 1.2 and have no paper values.

inline Figure Fig3PastryVaryN(const BenchArgs& args) {
  return {"fig3_pastry_vary_n",
          PolicyOf<experiments::PastryPolicy>(),
          {{"Figure 3 — Pastry: improvement vs n (k = log2 n, identical "
            "ranking)",
            "n / alpha",
            SizeSweep(args, {256, 512, 1024, 2048}, 1,
                      {{"alpha=1.20", 1.2, false,
                        {"~40%", "~44%", "~47%", "~49%"}},
                       {"alpha=0.91", 0.91, false,
                        {"~22%", "~25%", "~27%", "~29%"}}})}}};
}

inline Figure Fig4PastryVaryK(const BenchArgs& args) {
  return {"fig4_pastry_vary_k",
          PolicyOf<experiments::PastryPolicy>(),
          {{"Figure 4 — Pastry: improvement vs k (n = 1024)", "k / alpha",
            BudgetSweep(args, 1,
                        {{"a=1.20", 1.2, false, {"~50%", "~56%", "~60%"}},
                         {"a=0.91", 0.91, false, {"~27%", "~31%", "~34%"}}})}}};
}

inline Figure Fig5ChordVaryN(const BenchArgs& args) {
  const std::vector<int> sizes = {128, 256, 512, 1024};
  return {"fig5_chord_vary_n",
          PolicyOf<experiments::ChordPolicy>(),
          {{"Figure 5 — Chord: improvement vs n (k = log2 n), stable", "n",
            SizeSweep(args, sizes, 5,
                      {{"stable", 1.2, false,
                        {"~40%", "~45%", "~52%", "~57%"}}})},
           {"Figure 5 — Chord: improvement vs n (k = log2 n), high churn",
            "n",
            SizeSweep(args, sizes, 5,
                      {{"churn", 1.2, true,
                        {"~10%", "~15%", "~20%", "~25%"}}})}}};
}

inline Figure Fig6ChordVaryK(const BenchArgs& args) {
  return {"fig6_chord_vary_k",
          PolicyOf<experiments::ChordPolicy>(),
          {{"Figure 6 — Chord: improvement vs k (n = 1024), stable", "k",
            BudgetSweep(args, 5,
                        {{"stable", 1.2, false, {"~57%", "~50%", "~45%"}}})},
           {"Figure 6 — Chord: improvement vs k (n = 1024), high churn", "k",
            BudgetSweep(args, 5,
                        {{"churn", 1.2, true, {"~26%", "~21%", "~17%"}}})}}};
}

inline Figure KademliaVaryN(const BenchArgs& args) {
  const std::vector<int> sizes = {128, 256, 512, 1024};
  return {"kademlia_vary_n",
          PolicyOf<experiments::KademliaPolicy>(),
          {{"Kademlia: improvement vs n (k = log2 n), stable", "n",
            SizeSweep(args, sizes, 1, {{"stable", 1.2, false, {}}})},
           {"Kademlia: improvement vs n (k = log2 n), high churn", "n",
            SizeSweep(args, sizes, 1, {{"churn", 1.2, true, {}}})}}};
}

inline Figure KademliaVaryK(const BenchArgs& args) {
  return {"kademlia_vary_k",
          PolicyOf<experiments::KademliaPolicy>(),
          {{"Kademlia: improvement vs k (n = 1024), stable", "k",
            BudgetSweep(args, 1, {{"stable", 1.2, false, {}}})}}};
}

/// Runs one row at args.seeds seeds from args.base_seed and averages them.
/// Churn rows run the paper's churn process (ChurnConfig's defaults) with
/// 1200 s warmup and measurement windows under --quick, else 3600 s.
inline FigureRow RunFigureRow(const Figure& figure, const FigureRowSpec& row,
                              const BenchArgs& args) {
  experiments::ChurnConfig churn;
  churn.warmup_s = args.quick ? 1200 : 3600;
  churn.measure_s = churn.warmup_s;
  return AveragedRow(
      args,
      [&](uint64_t seed) {
        experiments::ExperimentConfig config = row.config;
        config.seed = seed;
        return row.churn ? figure.policy.churn(config, churn)
                         : figure.policy.stable(config);
      },
      row.label, row.paper_reference);
}

/// A figure driver's whole run: parses the shared flags, builds the figure
/// from them, runs every row the command line keeps in order and prints
/// each section's table, then writes the --json-out document and the
/// --trace-out JSONL. Returns the process exit code.
inline int RunFigure(FigureDefinition define, int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const Figure figure = define(args);
  FigureJson json(figure.generator, figure.policy.system, args);
  TraceLog traces;
  for (const FigureSection& section : figure.sections) {
    if (&section != &figure.sections.front()) std::printf("\n");
    PrintFigureHeader(section.title, section.label_column);
    for (const FigureRowSpec& spec : section.rows) {
      if (args.quick && !spec.quick) continue;
      const FigureRow row = RunFigureRow(figure, spec, args);
      PrintFigureRow(row);
      traces.AddRow(row, figure.policy.system);
      json.AddRow(row, spec.mode(), spec.config);
    }
  }
  const int json_rc = json.WriteIfRequested(args);
  const int trace_rc = traces.WriteIfRequested(args);
  return json_rc != 0 ? json_rc : trace_rc;
}

}  // namespace peercache::bench

#endif  // PEERCACHE_BENCH_FIGURE_SWEEPS_H_
