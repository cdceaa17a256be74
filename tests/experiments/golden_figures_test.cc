// Golden-file differential test for the generic experiment engine: the
// cheapest row of each committed figure document (results/fig3..6.json and
// results/kademlia_vary_{n,k}.json, written by results/regenerate.sh with
// --seeds 2) must be reproduced byte-identically — every deterministic row
// field formats to the exact string stored in the golden file, at thread
// counts 1 and 4.
//
// Wall-clock timings inside the documents (phase_seconds, seconds) are the
// only non-deterministic fields; the comparison therefore targets the
// averaged figure columns, which the engine promises to reproduce from
// (seed, config) alone.

#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "common/bits.h"
#include "common/json_writer.h"
#include "experiments/generic_experiment.h"
#include "gtest/gtest.h"

namespace peercache::experiments {
namespace {

using bench::AveragedRow;
using bench::BenchArgs;
using bench::FigureRow;

std::string ReadGolden(const std::string& name) {
  const std::string path = std::string(PEERCACHE_RESULTS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Extracts the literal JSON text of `key` inside the row object labeled
/// `label`. The row-level figure columns are serialized before the nested
/// "detail" comparison document, so the first match after the label is the
/// row's own field.
std::string GoldenField(const std::string& doc, const std::string& label,
                        const std::string& key) {
  const size_t row = doc.find("\"label\":\"" + label + "\"");
  if (row == std::string::npos) return "<label not found>";
  const std::string needle = "\"" + key + "\":";
  const size_t pos = doc.find(needle, row);
  if (pos == std::string::npos) return "<key not found>";
  const size_t start = pos + needle.size();
  const size_t end = doc.find_first_of(",}", start);
  return doc.substr(start, end - start);
}

/// Asserts that every deterministic figure column of `row` renders to the
/// byte-exact string committed under `label` in `doc`.
void ExpectRowMatchesGolden(const FigureRow& row, const std::string& doc,
                            const std::string& label) {
  EXPECT_EQ(JsonWriter::FormatDouble(row.none_hops),
            GoldenField(doc, label, "none_hops"))
      << label;
  EXPECT_EQ(JsonWriter::FormatDouble(row.oblivious_hops),
            GoldenField(doc, label, "oblivious_hops"))
      << label;
  EXPECT_EQ(JsonWriter::FormatDouble(row.optimal_hops),
            GoldenField(doc, label, "optimal_hops"))
      << label;
  EXPECT_EQ(JsonWriter::FormatDouble(row.improvement_pct),
            GoldenField(doc, label, "improvement_pct"))
      << label;
  EXPECT_EQ(JsonWriter::FormatDouble(row.improvement_vs_none_pct),
            GoldenField(doc, label, "improvement_vs_none_pct"))
      << label;
  EXPECT_EQ(JsonWriter::FormatDouble(row.success_rate),
            GoldenField(doc, label, "success_rate"))
      << label;
}

/// The committed figures were generated with --seeds 2 --seed 1 (non-quick
/// workloads: 300 warmup / 200 measured queries per node).
BenchArgs GoldenArgs(int threads) {
  BenchArgs args;
  args.seeds = 2;
  args.base_seed = 1;
  args.threads = threads;
  return args;
}

class GoldenFigures : public ::testing::TestWithParam<int> {};

// Figure 3 row n=256, alpha=1.2 (Pastry stable, identical ranking).
TEST_P(GoldenFigures, Fig3PastryN256) {
  const std::string doc = ReadGolden("fig3.json");
  const BenchArgs args = GoldenArgs(GetParam());
  ExperimentConfig cfg;
  cfg.n_nodes = 256;
  cfg.k = 8;
  cfg.alpha = 1.2;
  cfg.n_items = 256;
  cfg.n_popularity_lists = 1;
  cfg.warmup_queries_per_node = 300;
  cfg.measure_queries_per_node = 200;
  cfg.threads = args.threads;
  FigureRow row = AveragedRow(
      args,
      [&](uint64_t seed) {
        cfg.seed = seed;
        return CompareStable<PastryPolicy>(cfg);
      },
      "n=256 alpha=1.2", "");
  ExpectRowMatchesGolden(row, doc, "n=256   alpha=1.20");
}

// Figure 4 row k=10, alpha=1.2 (Pastry stable, n=1024).
TEST_P(GoldenFigures, Fig4PastryK10) {
  const std::string doc = ReadGolden("fig4.json");
  const BenchArgs args = GoldenArgs(GetParam());
  ExperimentConfig cfg;
  cfg.n_nodes = 1024;
  cfg.k = 10;
  cfg.alpha = 1.2;
  cfg.n_items = 1024;
  cfg.n_popularity_lists = 1;
  cfg.warmup_queries_per_node = 300;
  cfg.measure_queries_per_node = 200;
  cfg.threads = args.threads;
  FigureRow row = AveragedRow(
      args,
      [&](uint64_t seed) {
        cfg.seed = seed;
        return CompareStable<PastryPolicy>(cfg);
      },
      "k=10", "");
  ExpectRowMatchesGolden(row, doc, "k=1logn=10  a=1.20");
}

// Figure 5 rows n=128 stable and n=128 churn (Chord, 5 popularity lists).
TEST_P(GoldenFigures, Fig5ChordN128StableAndChurn) {
  const std::string doc = ReadGolden("fig5.json");
  const BenchArgs args = GoldenArgs(GetParam());
  ExperimentConfig cfg;
  cfg.n_nodes = 128;
  cfg.k = CeilLog2(uint64_t{128});
  cfg.alpha = 1.2;
  cfg.n_items = 128;
  cfg.n_popularity_lists = 5;
  cfg.warmup_queries_per_node = 300;
  cfg.measure_queries_per_node = 200;
  cfg.threads = args.threads;
  FigureRow stable = AveragedRow(
      args,
      [&](uint64_t seed) {
        cfg.seed = seed;
        return CompareStable<ChordPolicy>(cfg);
      },
      "n=128 stable", "");
  ExpectRowMatchesGolden(stable, doc, "n=128   stable");

  FigureRow churn_row = AveragedRow(
      args,
      [&](uint64_t seed) {
        cfg.seed = seed;
        ChurnConfig churn;  // the figure's parameters
        churn.warmup_s = 3600;
        churn.measure_s = 3600;
        return CompareChurn<ChordPolicy>(cfg, churn);
      },
      "n=128 churn", "");
  ExpectRowMatchesGolden(churn_row, doc, "n=128   churn");
}

// Figure 6 row k=10 stable (Chord, n=1024, 5 popularity lists).
TEST_P(GoldenFigures, Fig6ChordK10Stable) {
  const std::string doc = ReadGolden("fig6.json");
  const BenchArgs args = GoldenArgs(GetParam());
  ExperimentConfig cfg;
  cfg.n_nodes = 1024;
  cfg.k = 10;
  cfg.alpha = 1.2;
  cfg.n_items = 1024;
  cfg.n_popularity_lists = 5;
  cfg.warmup_queries_per_node = 300;
  cfg.measure_queries_per_node = 200;
  cfg.threads = args.threads;
  FigureRow row = AveragedRow(
      args,
      [&](uint64_t seed) {
        cfg.seed = seed;
        return CompareStable<ChordPolicy>(cfg);
      },
      "k=10", "");
  ExpectRowMatchesGolden(row, doc, "k=1logn=10  stable");
}

// Kademlia sweep rows n=128 stable and n=128 churn.
TEST_P(GoldenFigures, KademliaVaryN128StableAndChurn) {
  const std::string doc = ReadGolden("kademlia_vary_n.json");
  const BenchArgs args = GoldenArgs(GetParam());
  ExperimentConfig cfg;
  cfg.n_nodes = 128;
  cfg.k = CeilLog2(uint64_t{128});
  cfg.alpha = 1.2;
  cfg.n_items = 128;
  cfg.n_popularity_lists = 1;
  cfg.warmup_queries_per_node = 300;
  cfg.measure_queries_per_node = 200;
  cfg.threads = args.threads;
  FigureRow stable = AveragedRow(
      args,
      [&](uint64_t seed) {
        cfg.seed = seed;
        return CompareStable<KademliaPolicy>(cfg);
      },
      "n=128 stable", "");
  ExpectRowMatchesGolden(stable, doc, "n=128   stable");

  FigureRow churn_row = AveragedRow(
      args,
      [&](uint64_t seed) {
        cfg.seed = seed;
        ChurnConfig churn;  // the sweep's parameters
        churn.warmup_s = 3600;
        churn.measure_s = 3600;
        return CompareChurn<KademliaPolicy>(cfg, churn);
      },
      "n=128 churn", "");
  ExpectRowMatchesGolden(churn_row, doc, "n=128   churn");
}

// Kademlia budget sweep row k=10 stable (n=1024).
TEST_P(GoldenFigures, KademliaVaryKK10Stable) {
  const std::string doc = ReadGolden("kademlia_vary_k.json");
  const BenchArgs args = GoldenArgs(GetParam());
  ExperimentConfig cfg;
  cfg.n_nodes = 1024;
  cfg.k = 10;
  cfg.alpha = 1.2;
  cfg.n_items = 1024;
  cfg.n_popularity_lists = 1;
  cfg.warmup_queries_per_node = 300;
  cfg.measure_queries_per_node = 200;
  cfg.threads = args.threads;
  FigureRow row = AveragedRow(
      args,
      [&](uint64_t seed) {
        cfg.seed = seed;
        return CompareStable<KademliaPolicy>(cfg);
      },
      "k=10", "");
  ExpectRowMatchesGolden(row, doc, "k=1logn=10  stable");
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
}  // namespace peercache::experiments
