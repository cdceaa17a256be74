// Golden-file differential test for the figure sweeps: every definition in
// bench/figure_sweeps.h must match the committed document its driver wrote
// (results/fig3..6.json and results/kademlia_vary_{n,k}.json, written by
// results/regenerate.sh with --seeds 2), row for row: label, order, mode,
// paper reference and config. The cheapest rows of each figure are also
// replayed, and every deterministic column must format to the exact string
// stored in the golden file, at thread counts 1 and 4.
//
// Wall-clock timings inside the documents (phase_seconds, seconds) are the
// only non-deterministic fields; the comparison therefore targets the
// averaged figure columns, which the engine promises to reproduce from
// (seed, config) alone.

#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>

#include "bench_util.h"
#include "common/json_writer.h"
#include "experiments/json_report.h"
#include "figure_sweeps.h"
#include "gtest/gtest.h"

namespace peercache::bench {
namespace {

using experiments::ExperimentConfig;

/// Each figure and the document results/regenerate.sh writes from it.
const std::pair<FigureDefinition, const char*> kCommittedFigures[] = {
    {Fig3PastryVaryN, "fig3.json"},
    {Fig4PastryVaryK, "fig4.json"},
    {Fig5ChordVaryN, "fig5.json"},
    {Fig6ChordVaryK, "fig6.json"},
    {KademliaVaryN, "kademlia_vary_n.json"},
    {KademliaVaryK, "kademlia_vary_k.json"}};

std::string ReadGolden(const std::string& name) {
  const std::string path = std::string(PEERCACHE_RESULTS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The literal JSON text of the first `key` value at or after `pos` in
/// `doc` — a string with its quotes, a flat object with its braces, or a
/// number — and moves `pos` past it.
std::string NextValue(const std::string& doc, const std::string& key,
                      size_t& pos) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = doc.find(needle, pos);
  if (at == std::string::npos) return "<" + key + " not found>";
  const size_t start = at + needle.size();
  size_t end = doc.find_first_of(",}", start);
  if (doc[start] == '"') end = doc.find('"', start + 1) + 1;
  if (doc[start] == '{') end = doc.find('}', start) + 1;
  pos = end;
  return doc.substr(start, end - start);
}

std::string Quoted(const std::string& text) { return "\"" + text + "\""; }

/// The committed documents were generated with --seeds 2 --seed 1 and
/// non-quick workloads (300 warmup / 200 measured queries per node).
BenchArgs GoldenArgs(int threads) {
  BenchArgs args;
  args.seeds = 2;
  args.base_seed = 1;
  args.threads = threads;
  return args;
}

// Every row of every figure, in order, carries the label, mode, paper
// reference and config its committed document records. Nothing runs: the
// configs are those of results/regenerate.sh's flags, threads 0 included.
TEST(GoldenFigureDefinitions, EveryRowMatchesItsCommittedDocument) {
  for (const auto& [define, document] : kCommittedFigures) {
    SCOPED_TRACE(document);
    const Figure figure = define(GoldenArgs(0));
    const std::string doc = ReadGolden(document);
    size_t pos = 0;
    EXPECT_EQ(NextValue(doc, "generator", pos), Quoted(figure.generator));
    EXPECT_EQ(NextValue(doc, "system", pos), Quoted(figure.policy.system));
    size_t rows = 0;
    for (const FigureSection& section : figure.sections) {
      for (const FigureRowSpec& row : section.rows) {
        SCOPED_TRACE(row.label);
        ++rows;
        EXPECT_EQ(NextValue(doc, "label", pos), Quoted(row.label));
        EXPECT_EQ(NextValue(doc, "mode", pos), Quoted(row.mode()));
        JsonWriter config;
        experiments::WriteConfigJson(config, row.config);
        EXPECT_EQ(NextValue(doc, "config", pos), config.TakeString());
        EXPECT_EQ(NextValue(doc, "paper_reference", pos),
                  Quoted(row.paper_reference));
      }
    }
    EXPECT_EQ(NextValue(doc, "label", pos), "<label not found>")
        << "the document has more than the " << rows << " defined rows";
  }
}

/// Asserts that every deterministic figure column of `row` renders to the
/// byte-exact string committed in `doc`'s row labeled `row.label`. The row
/// columns precede the row's nested "detail" document.
void ExpectRowMatchesGolden(const FigureRow& row, const std::string& doc) {
  const size_t at = doc.find("\"label\":" + Quoted(row.label));
  ASSERT_NE(at, std::string::npos) << row.label;
  const std::pair<const char*, double> columns[] = {
      {"none_hops", row.none_hops},
      {"oblivious_hops", row.oblivious_hops},
      {"optimal_hops", row.optimal_hops},
      {"improvement_pct", row.improvement_pct},
      {"improvement_vs_none_pct", row.improvement_vs_none_pct},
      {"success_rate", row.success_rate}};
  for (const auto& [key, value] : columns) {
    size_t pos = at;
    EXPECT_EQ(JsonWriter::FormatDouble(value), NextValue(doc, key, pos))
        << row.label << " " << key;
  }
}

/// Replays the rows labeled `labels` of the figure `define` builds from the
/// committed documents' flags at `threads`, and checks them against
/// `document`.
void ReplayRows(FigureDefinition define, const char* document,
                std::initializer_list<const char*> labels, int threads) {
  const BenchArgs args = GoldenArgs(threads);
  const Figure figure = define(args);
  const std::string doc = ReadGolden(document);
  for (const char* label : labels) {
    const FigureRowSpec* spec = nullptr;
    for (const FigureSection& section : figure.sections) {
      for (const FigureRowSpec& row : section.rows) {
        if (row.label == label) spec = &row;
      }
    }
    ASSERT_NE(spec, nullptr) << "no row labeled " << label;
    ExpectRowMatchesGolden(RunFigureRow(figure, *spec, args), doc);
  }
}

class GoldenFigures : public ::testing::TestWithParam<int> {};

TEST_P(GoldenFigures, Fig3PastryN256) {
  ReplayRows(Fig3PastryVaryN, "fig3.json", {"n=256   alpha=1.20"}, GetParam());
}

TEST_P(GoldenFigures, Fig4PastryK10) {
  ReplayRows(Fig4PastryVaryK, "fig4.json", {"k=1logn=10  a=1.20"}, GetParam());
}

TEST_P(GoldenFigures, Fig5ChordN128StableAndChurn) {
  ReplayRows(Fig5ChordVaryN, "fig5.json", {"n=128   stable", "n=128   churn"},
             GetParam());
}

TEST_P(GoldenFigures, Fig6ChordK10Stable) {
  ReplayRows(Fig6ChordVaryK, "fig6.json", {"k=1logn=10  stable"}, GetParam());
}

TEST_P(GoldenFigures, KademliaVaryN128StableAndChurn) {
  ReplayRows(KademliaVaryN, "kademlia_vary_n.json",
             {"n=128   stable", "n=128   churn"}, GetParam());
}

TEST_P(GoldenFigures, KademliaVaryKK10Stable) {
  ReplayRows(KademliaVaryK, "kademlia_vary_k.json", {"k=1logn=10  stable"},
             GetParam());
}

// The figure harnesses build every row's config through ApplyObservability,
// so the shared fault flags reach the runs (and the documents' config and
// resilience blocks) like the latency and trace flags do.
TEST(BenchArgs, ApplyObservabilityCopiesTheFaultFlags) {
  const char* argv[] = {"fig", "--fault-drop", "0.2", "--fault-seed", "7"};
  const BenchArgs args =
      BenchArgs::Parse(5, const_cast<char**>(argv));
  ExperimentConfig cfg;
  ASSERT_FALSE(cfg.faults.enabled());
  args.ApplyObservability(cfg);
  EXPECT_TRUE(cfg.faults.enabled());
  EXPECT_EQ(cfg.faults.drop_prob, 0.2);
  EXPECT_EQ(cfg.faults.seed, 7u);
  EXPECT_FALSE(cfg.latency.enabled());
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenFigures, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace peercache::bench
