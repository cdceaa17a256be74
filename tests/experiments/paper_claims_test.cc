// The paper's Sec. VI claims (Figs. 3-6) as assertions, at reduced scale.
// The golden tests prove that committed bytes did not change; these prove
// that the trends the paper reports still hold, so they survive any
// re-baseline of the committed documents.
//
// Every run uses the default ExperimentConfig at n = 256, k = log2 n = 8
// (24 where a claim sweeps k), churn windows of 1200 s + 1200 s, and seeds
// 11-13, which no golden document uses. Each claim is checked per seed
// where the seeds agree and on the seed mean where single seeds are noisy.
// The tolerances leave room for a change that moves random streams but
// not the mechanism; the margins they leave at the current code are listed
// in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "experiments/generic_experiment.h"

namespace peercache::experiments {
namespace {

constexpr uint64_t kSeeds[] = {11, 12, 13};
constexpr double kSeedCount = 3.0;

ExperimentConfig Config(uint64_t seed, int k, double alpha, int threads) {
  ExperimentConfig cfg;
  cfg.n_nodes = 256;
  cfg.k = k;
  cfg.alpha = alpha;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

ChurnConfig ClaimChurn() {
  ChurnConfig churn;
  churn.warmup_s = 1200;
  churn.measure_s = 1200;
  return churn;
}

std::string Where(const char* run, uint64_t seed) {
  return std::string(run) + ", seed " + std::to_string(seed);
}

/// Sec. VI-B/C: the optimal selection beats the frequency-oblivious one,
/// and both beat routing on core neighbors alone.
void ExpectHopsOrdered(const Comparison& c, const std::string& where) {
  EXPECT_LT(c.optimal.avg_hops, c.oblivious.avg_hops) << where;
  EXPECT_LT(c.oblivious.avg_hops, c.none.avg_hops) << where;
}

class PaperClaims : public ::testing::TestWithParam<int> {};

// Figs. 3-4 (Pastry, stable): the improvement is larger under the skewed
// popularity (alpha = 1.2) than under the flatter one (0.91), and it does
// not fall as k grows. The hop ordering is checked under churn too.
TEST_P(PaperClaims, Pastry) {
  const int threads = GetParam();
  double obl_change = 0.0;
  double core_change = 0.0;
  for (uint64_t seed : kSeeds) {
    auto skewed = CompareStable<PastryPolicy>(Config(seed, 8, 1.2, threads));
    auto flat = CompareStable<PastryPolicy>(Config(seed, 8, 0.91, threads));
    auto wide = CompareStable<PastryPolicy>(Config(seed, 24, 1.2, threads));
    auto churn =
        CompareChurn<PastryPolicy>(Config(seed, 8, 1.2, threads), ClaimChurn());
    ASSERT_TRUE(skewed.ok() && flat.ok() && wide.ok() && churn.ok());
    ExpectHopsOrdered(*skewed, Where("stable k=8", seed));
    ExpectHopsOrdered(*flat, Where("stable k=8 alpha=0.91", seed));
    ExpectHopsOrdered(*wide, Where("stable k=24", seed));
    ExpectHopsOrdered(*churn, Where("churn k=8", seed));

    EXPECT_GE(skewed->improvement_pct - flat->improvement_pct, 10.0)
        << Where("alpha 1.2 vs 0.91", seed);
    EXPECT_GT(wide->improvement_vs_none_pct, skewed->improvement_vs_none_pct)
        << Where("impr/core, k 8 -> 24", seed);
    obl_change += wide->improvement_pct - skewed->improvement_pct;
    core_change +=
        wide->improvement_vs_none_pct - skewed->improvement_vs_none_pct;
  }
  // A single seed can fall by a few points (seed 12 does), so the
  // "does not fall" claim is on the seed mean, with 2 points of tolerance.
  EXPECT_GE(obl_change / kSeedCount, -2.0);
  EXPECT_GE(core_change / kSeedCount, 5.0);
}

// Figs. 5-6 (Chord): under churn the improvement stays positive but falls
// well below the stable one, and it shrinks as k grows, because more of a
// larger optimal set goes stale between recomputations.
TEST_P(PaperClaims, Chord) {
  const int threads = GetParam();
  for (uint64_t seed : kSeeds) {
    auto stable = CompareStable<ChordPolicy>(Config(seed, 8, 1.2, threads));
    auto churn =
        CompareChurn<ChordPolicy>(Config(seed, 8, 1.2, threads), ClaimChurn());
    auto wide_churn = CompareChurn<ChordPolicy>(
        Config(seed, 24, 1.2, threads), ClaimChurn());
    ASSERT_TRUE(stable.ok() && churn.ok() && wide_churn.ok());
    ExpectHopsOrdered(*stable, Where("stable k=8", seed));
    ExpectHopsOrdered(*churn, Where("churn k=8", seed));
    ExpectHopsOrdered(*wide_churn, Where("churn k=24", seed));

    EXPECT_GT(churn->improvement_pct, 0.0) << Where("churn k=8", seed);
    EXPECT_GE(stable->improvement_pct - churn->improvement_pct, 5.0)
        << Where("stable vs churn, k=8", seed);
    EXPECT_GE(churn->improvement_pct - wide_churn->improvement_pct, 2.0)
        << Where("churn, k 8 -> 24", seed);
  }
}

// The ordering holds on the third overlay too, stable and under churn.
TEST_P(PaperClaims, Kademlia) {
  const int threads = GetParam();
  for (uint64_t seed : kSeeds) {
    auto stable =
        CompareStable<KademliaPolicy>(Config(seed, 8, 1.2, threads));
    auto churn = CompareChurn<KademliaPolicy>(
        Config(seed, 8, 1.2, threads), ClaimChurn());
    ASSERT_TRUE(stable.ok() && churn.ok());
    ExpectHopsOrdered(*stable, Where("stable k=8", seed));
    ExpectHopsOrdered(*churn, Where("churn k=8", seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PaperClaims, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace peercache::experiments
