// Seeded fault-corpus differential test (docs/RESILIENCE.md): regenerating
// the committed corpus document (results/fault_corpus.json, written by
// `fault_resilience --corpus-out`) must reproduce it byte-identically at
// thread counts 1 and 4. The document replays eight fault scenarios —
// drops, fail-stops, stale windows, a no-retry baseline, and a tight retry
// budget — through both overlays and serializes only deterministic fields
// (config, headline averages, and the full `resilience` block), so a single
// string comparison pins the whole resilient-routing pipeline, including
// its thread-count invariance, to the committed behavior.

#include <fstream>
#include <sstream>
#include <string>

#include "experiments/fault_corpus.h"
#include "gtest/gtest.h"

namespace peercache::experiments {
namespace {

std::string ReadCommittedCorpus() {
  const std::string path =
      std::string(PEERCACHE_RESULTS_DIR) + "/fault_corpus.json";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing committed corpus " << path
                         << " — regenerate with results/regenerate.sh";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class FaultCorpusDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FaultCorpusDifferential, RegeneratesCommittedBytes) {
  const std::string golden = ReadCommittedCorpus();
  ASSERT_FALSE(golden.empty());
  Result<std::string> doc = FaultCorpusDocument(/*threads=*/GetParam());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // The committed file ends with a newline the writer does not emit.
  EXPECT_EQ(*doc + "\n", golden)
      << "fault corpus diverged at threads=" << GetParam()
      << "; if the change is intended, rerun results/regenerate.sh";
}

INSTANTIATE_TEST_SUITE_P(Threads, FaultCorpusDifferential,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace peercache::experiments
