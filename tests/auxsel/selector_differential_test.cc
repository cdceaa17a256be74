// Differential optimality checks (paper Secs. IV-B, V-B as executable
// claims): on randomized instances up to n = 256, the Pastry greedy
// selector must achieve exactly the trie DP's optimal Eq. 1 cost, the
// accelerated Chord selector must match the reference Chord DP's cost, and
// the Pastry gain tree, which selects for Kademlia, must match the
// independent XOR-metric range-recursion DP. These are the invariants the parallel experiment
// engine leans on — every per-node selection task runs one of the fast
// selectors, and this test is what certifies they are drop-in equal to the
// exact programs.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "auxsel/chord_dp.h"
#include "auxsel/chord_fast.h"
#include "auxsel/kademlia_dp.h"
#include "auxsel/pastry_dp.h"
#include "auxsel/pastry_greedy.h"
#include "auxsel/selection_types.h"
#include "common/bits.h"
#include "common/random.h"
#include "test_util.h"

namespace peercache::auxsel {
namespace {

using ::peercache::auxsel::testing::RandomInput;

constexpr uint64_t kSeeds[] = {1, 42, 0xdead, 20260806, 0x5eedcafe};

struct Shape {
  int bits;
  int n_peers;
  int n_cores;
  int k;
};

// n stays <= 256 so the quadratic/cubic reference DPs finish quickly while
// still exercising deep tries and long successor chains.
constexpr Shape kShapes[] = {
    {8, 12, 3, 2},    {10, 40, 6, 5},   {16, 96, 8, 7},
    {16, 160, 12, 10}, {32, 256, 16, 8}, {32, 256, 0, 12},
};

double RelTol(double reference) { return 1e-9 * (1.0 + reference); }

TEST(SelectorDifferentialTest, PastryGreedyAchievesDpOptimum) {
  for (uint64_t seed : kSeeds) {
    Rng rng(MixHash64(seed ^ 0x9a57));
    for (const Shape& s : kShapes) {
      SelectionInput input = RandomInput(rng, s.bits, s.n_peers, s.n_cores,
                                         s.k);
      auto dp = SelectPastryDp(input);
      auto greedy = SelectPastryGreedy(input);
      ASSERT_TRUE(dp.ok()) << dp.status();
      ASSERT_TRUE(greedy.ok()) << greedy.status();
      // The paper's optimality claim: greedy cost == exact optimum.
      EXPECT_NEAR(greedy->cost, dp->cost, RelTol(dp->cost))
          << "seed " << seed << " n " << s.n_peers << " k " << s.k;
      // Both costs must also be honest Eq. 1 evaluations of the chosen set.
      EXPECT_NEAR(dp->cost, EvaluatePastryCost(input, dp->chosen),
                  RelTol(dp->cost));
      EXPECT_NEAR(greedy->cost, EvaluatePastryCost(input, greedy->chosen),
                  RelTol(greedy->cost));
    }
  }
}

TEST(SelectorDifferentialTest, ChordFastMatchesReferenceDp) {
  for (uint64_t seed : kSeeds) {
    Rng rng(MixHash64(seed ^ 0xc02d));
    for (const Shape& s : kShapes) {
      SelectionInput input = RandomInput(rng, s.bits, s.n_peers, s.n_cores,
                                         s.k);
      auto dp = SelectChordDp(input);
      auto fast = SelectChordFast(input);
      ASSERT_TRUE(dp.ok()) << dp.status();
      ASSERT_TRUE(fast.ok()) << fast.status();
      EXPECT_NEAR(fast->cost, dp->cost, RelTol(dp->cost))
          << "seed " << seed << " n " << s.n_peers << " k " << s.k;
      EXPECT_NEAR(dp->cost, EvaluateChordCost(input, dp->chosen),
                  RelTol(dp->cost));
      EXPECT_NEAR(fast->cost, EvaluateChordCost(input, fast->chosen),
                  RelTol(fast->cost));
    }
  }
}

TEST(SelectorDifferentialTest, KademliaFastMatchesReferenceDp) {
  // Kademlia's fast path is the Pastry gain tree (bitlen(u XOR v) = bits −
  // lcp(u, v)); the DP is an independent range recursion over the
  // id-sorted peer array, so agreement here certifies both the identity
  // and the gain-tree generalization at b = 1.
  for (uint64_t seed : kSeeds) {
    Rng rng(MixHash64(seed ^ 0x4ad0));
    for (const Shape& s : kShapes) {
      SelectionInput input = RandomInput(rng, s.bits, s.n_peers, s.n_cores,
                                         s.k);
      auto dp = SelectKademliaDp(input);
      auto fast = SelectPastryGreedy(input);
      ASSERT_TRUE(dp.ok()) << dp.status();
      ASSERT_TRUE(fast.ok()) << fast.status();
      EXPECT_NEAR(fast->cost, dp->cost, RelTol(dp->cost))
          << "seed " << seed << " n " << s.n_peers << " k " << s.k;
      EXPECT_NEAR(dp->cost, EvaluateKademliaCost(input, dp->chosen),
                  RelTol(dp->cost));
      EXPECT_NEAR(fast->cost, EvaluateKademliaCost(input, fast->chosen),
                  RelTol(fast->cost));
    }
  }
}

TEST(SelectorDifferentialTest, DegenerateBudgetsAgree) {
  // k = 0 (no auxiliaries allowed) and k >= n (everything allowed) are the
  // boundary rows of both DPs; the fast selectors must agree there too.
  Rng rng(0xb0a7);
  for (int k : {0, 300}) {
    SelectionInput input = RandomInput(rng, 16, 64, 5, k);
    auto pastry_dp = SelectPastryDp(input);
    auto pastry_greedy = SelectPastryGreedy(input);
    ASSERT_TRUE(pastry_dp.ok() && pastry_greedy.ok());
    EXPECT_NEAR(pastry_greedy->cost, pastry_dp->cost, RelTol(pastry_dp->cost));
    auto chord_dp = SelectChordDp(input);
    auto chord_fast = SelectChordFast(input);
    ASSERT_TRUE(chord_dp.ok() && chord_fast.ok());
    EXPECT_NEAR(chord_fast->cost, chord_dp->cost, RelTol(chord_dp->cost));
    auto kad_dp = SelectKademliaDp(input);
    ASSERT_TRUE(kad_dp.ok());
    EXPECT_NEAR(pastry_greedy->cost, kad_dp->cost, RelTol(kad_dp->cost));
  }
}

}  // namespace
}  // namespace peercache::auxsel
