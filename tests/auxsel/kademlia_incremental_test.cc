// Differential tests for Kademlia's persistent maintainer, which is
// PastryAuxMaintainer (the XOR estimate is the trie distance with one-bit
// digits): randomized delta streams must stay cost-equal at every step to
// the independent XOR-metric range DP (SelectKademliaDp), and the
// incremental pricing must equal the XOR evaluator (EvaluateKademliaCost).
// The maintainer-contract edge cases (departed cores, empty state, cached
// reselection) are checked here against the XOR references as well.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "auxsel/kademlia_dp.h"
#include "auxsel/pastry_maintainer.h"
#include "auxsel/selection_types.h"
#include "common/random.h"
#include "maintainer_test_util.h"
#include "test_util.h"

namespace peercache::auxsel {
namespace {

using ::peercache::auxsel::testing::RandomInput;
using ::peercache::auxsel::testing::ReplayDeltasAgainstFresh;

TEST(KademliaMaintainer, RandomDeltaStreamMatchesFreshSelect) {
  Rng rng(0x4ad701);
  PastryAuxMaintainer m(/*bits=*/12, /*k=*/4, /*self_id=*/99);
  ReplayDeltasAgainstFresh(m, SelectKademliaDp, EvaluateKademliaCost, rng,
                           /*steps=*/250);
}

TEST(KademliaMaintainer, SecondSeedAndLargerBudget) {
  Rng rng(0x4ad702);
  PastryAuxMaintainer m(/*bits=*/16, /*k=*/8, /*self_id=*/0x7777);
  ReplayDeltasAgainstFresh(m, SelectKademliaDp, EvaluateKademliaCost, rng,
                           /*steps=*/200);
}

TEST(KademliaMaintainer, IncrementalCostPricingMatchesEq1) {
  // BaseCost − TotalGain pricing against the XOR evaluator on a handmade
  // instance where the numbers are easy to audit by hand.
  PastryAuxMaintainer m(/*bits=*/8, /*k=*/1, /*self_id=*/0);
  ASSERT_TRUE(m.OnPeerJoin(0b10000000, 10.0).ok());
  ASSERT_TRUE(m.OnPeerJoin(0b10000001, 5.0).ok());
  ASSERT_TRUE(m.SetCores({0b01000000}).ok());
  auto sel = m.Reselect();
  ASSERT_TRUE(sel.ok());
  EXPECT_NEAR(sel->cost, EvaluateKademliaCost(m.FreshInput(), sel->chosen),
              1e-12);
}

TEST(KademliaMaintainer, DepartedCoreStaysUntilSetCoresDropsIt) {
  PastryAuxMaintainer m(/*bits=*/8, /*k=*/2, /*self_id=*/0);
  ASSERT_TRUE(m.SetCores({64, 128}).ok());
  ASSERT_TRUE(m.OnPeerJoin(10, 5.0).ok());
  ASSERT_TRUE(m.OnPeerJoin(64, 3.0).ok());
  ASSERT_TRUE(m.OnPeerLeave(64).ok());
  SelectionInput state = m.FreshInput();
  EXPECT_EQ(state.core_ids, (std::vector<uint64_t>{64, 128}));
  ASSERT_EQ(state.peers.size(), 1u);  // 64 keeps its leaf but carries no f
  EXPECT_EQ(m.tracked_peers(), 3u);

  auto changed = m.SetCores({128});
  ASSERT_TRUE(changed.ok());
  EXPECT_EQ(changed.value(), 1u);
  EXPECT_EQ(m.tracked_peers(), 2u);  // zero-frequency ex-core dropped
  auto inc = m.Reselect();
  ASSERT_TRUE(inc.ok());
  auto ref = SelectKademliaDp(m.FreshInput());
  ASSERT_TRUE(ref.ok());
  EXPECT_NEAR(inc->cost, ref->cost, 1e-12);
  EXPECT_NEAR(inc->cost, EvaluateKademliaCost(m.FreshInput(), inc->chosen),
              1e-12);
}

TEST(KademliaMaintainer, EmptyStateSelectsNothing) {
  PastryAuxMaintainer m(/*bits=*/8, /*k=*/3, /*self_id=*/7);
  auto sel = m.Reselect();
  ASSERT_TRUE(sel.ok()) << sel.status();
  EXPECT_TRUE(sel->chosen.empty());
  EXPECT_EQ(sel->cost, 0.0);
  EXPECT_EQ(m.total_frequency(), 0.0);
  auto ref = SelectKademliaDp(m.FreshInput());
  ASSERT_TRUE(ref.ok()) << ref.status();
  EXPECT_TRUE(ref->chosen.empty());
  EXPECT_EQ(ref->cost, 0.0);
}

TEST(KademliaMaintainer, NoDeltasReturnsCachedSelection) {
  Rng rng(0x4ad703);
  SelectionInput input =
      RandomInput(rng, /*bits=*/10, /*n_peers=*/25, /*n_cores=*/4, /*k=*/3);
  PastryAuxMaintainer m(input.bits, input.k, input.self_id);
  ASSERT_TRUE(m.SetCores(input.core_ids).ok());
  for (const PeerFreq& p : input.peers) {
    if (p.frequency > 0.0) {
      ASSERT_TRUE(m.OnPeerJoin(p.id, p.frequency).ok());
    }
  }
  auto first = m.Reselect();
  ASSERT_TRUE(first.ok());
  // The range DP sums in a different order than the trie, so the two
  // selectors agree to the relative tolerance ReplayDeltasAgainstFresh uses.
  auto ref = SelectKademliaDp(m.FreshInput());
  ASSERT_TRUE(ref.ok());
  EXPECT_NEAR(first->cost, ref->cost, 1e-9 * (1.0 + std::abs(ref->cost)));
  // Idempotent deltas must leave the cached selection untouched.
  for (const PeerFreq& p : input.peers) {
    if (p.frequency > 0.0) {
      ASSERT_TRUE(m.OnFrequencyDelta(p.id, p.frequency).ok());
    }
  }
  auto second = m.Reselect();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->chosen, second->chosen);
  EXPECT_EQ(first->cost, second->cost);
}

}  // namespace
}  // namespace peercache::auxsel
