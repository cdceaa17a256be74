// Unit tests for the Kademlia XOR-metric selection stack: brute-force
// optimality under the XOR evaluator of the DP and of the fast path
// (SelectPastryGreedy, which KademliaPolicy selects with), the
// bitlen(u XOR v) = b - lcp(u, v) identity that makes the Pastry trie
// machinery serve the XOR geometry, the honest-cost contract, structural
// properties of the chosen sets, and the oblivious baseline's slice
// discipline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "auxsel/kademlia_dp.h"
#include "auxsel/oblivious.h"
#include "auxsel/pastry_greedy.h"
#include "auxsel/selection_types.h"
#include "common/bits.h"
#include "common/random.h"
#include "test_util.h"

namespace peercache::auxsel {
namespace {

using ::peercache::auxsel::testing::BruteForceBestCost;
using ::peercache::auxsel::testing::Candidates;
using ::peercache::auxsel::testing::RandomInput;

double RelTol(double reference) { return 1e-9 * (1.0 + reference); }

TEST(KademliaSelector, DpMatchesBruteForceOnSmallInstances) {
  Rng rng(0x4ad801);
  for (int trial = 0; trial < 30; ++trial) {
    SelectionInput input = RandomInput(rng, /*bits=*/10, /*n_peers=*/9,
                                       /*n_cores=*/2, /*k=*/3);
    auto dp = SelectKademliaDp(input);
    ASSERT_TRUE(dp.ok()) << dp.status();
    const double best = BruteForceBestCost(input, EvaluateKademliaCost);
    EXPECT_NEAR(dp->cost, best, RelTol(best)) << "trial " << trial;
  }
}

TEST(KademliaSelector, FastMatchesBruteForceOnSmallInstances) {
  Rng rng(0x4ad802);
  for (int trial = 0; trial < 30; ++trial) {
    SelectionInput input = RandomInput(rng, /*bits=*/8, /*n_peers=*/10,
                                       /*n_cores=*/3, /*k=*/2);
    auto fast = SelectPastryGreedy(input);
    ASSERT_TRUE(fast.ok()) << fast.status();
    const double best = BruteForceBestCost(input, EvaluateKademliaCost);
    EXPECT_NEAR(fast->cost, best, RelTol(best)) << "trial " << trial;
  }
}

TEST(KademliaSelector, EvaluatorEqualsPastryEvaluator) {
  // bitlen(u XOR v) = bits - lcp(u, v), so the two Eq. 1 evaluations are
  // the same function. The implementations are independent (XOR bitlen vs
  // prefix comparison); this pins the identity rather than assuming it.
  Rng rng(0x4ad803);
  for (int trial = 0; trial < 50; ++trial) {
    SelectionInput input = RandomInput(rng, /*bits=*/16, /*n_peers=*/40,
                                       /*n_cores=*/5, /*k=*/4);
    std::vector<uint64_t> cands = Candidates(input);
    std::vector<uint64_t> aux(
        cands.begin(),
        cands.begin() +
            static_cast<long>(rng.UniformU64(cands.size() + 1)));
    EXPECT_DOUBLE_EQ(EvaluateKademliaCost(input, aux),
                     EvaluatePastryCost(input, aux))
        << "trial " << trial;
  }
}

TEST(KademliaSelector, BitLengthXorIdentity) {
  // The scalar form of the same identity, over exhaustive 8-bit pairs.
  const int bits = 8;
  for (uint64_t u = 0; u < 256; ++u) {
    for (uint64_t v = 0; v < 256; ++v) {
      ASSERT_EQ(BitLength(u ^ v),
                bits - CommonPrefixLength(u, v, bits))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST(KademliaSelector, ChosenAreSortedDistinctCandidates) {
  Rng rng(0x4ad804);
  for (int trial = 0; trial < 20; ++trial) {
    SelectionInput input = RandomInput(rng, /*bits=*/12, /*n_peers=*/48,
                                       /*n_cores=*/6, /*k=*/5);
    for (auto* select : {&SelectKademliaDp, &SelectPastryGreedy}) {
      auto sel = (*select)(input);
      ASSERT_TRUE(sel.ok()) << sel.status();
      EXPECT_LE(sel->chosen.size(), static_cast<size_t>(input.k));
      EXPECT_TRUE(
          std::is_sorted(sel->chosen.begin(), sel->chosen.end()));
      std::vector<uint64_t> cands = Candidates(input);
      std::unordered_set<uint64_t> cand_set(cands.begin(), cands.end());
      std::unordered_set<uint64_t> seen;
      for (uint64_t id : sel->chosen) {
        EXPECT_TRUE(cand_set.count(id)) << "non-candidate chosen: " << id;
        EXPECT_TRUE(seen.insert(id).second) << "duplicate chosen: " << id;
      }
    }
  }
}

TEST(KademliaSelector, NoPeersSelectsNothing) {
  SelectionInput input;
  input.bits = 8;
  input.k = 3;
  input.self_id = 1;
  input.core_ids = {2};
  for (auto* select : {&SelectKademliaDp, &SelectPastryGreedy}) {
    auto sel = (*select)(input);
    ASSERT_TRUE(sel.ok()) << sel.status();
    EXPECT_TRUE(sel->chosen.empty());
    EXPECT_EQ(sel->cost, 0.0);
  }
}

TEST(KademliaSelector, ZeroBudgetPricesCoreOnlyCost) {
  Rng rng(0x4ad805);
  SelectionInput input = RandomInput(rng, /*bits=*/10, /*n_peers=*/20,
                                     /*n_cores=*/4, /*k=*/0);
  for (auto* select : {&SelectKademliaDp, &SelectPastryGreedy}) {
    auto sel = (*select)(input);
    ASSERT_TRUE(sel.ok()) << sel.status();
    EXPECT_TRUE(sel->chosen.empty());
    EXPECT_NEAR(sel->cost, EvaluateKademliaCost(input, {}),
                RelTol(sel->cost));
  }
}

TEST(KademliaSelector, ObliviousRespectsBudgetAndHonestCost) {
  Rng outer(0x4ad806);
  for (int trial = 0; trial < 20; ++trial) {
    SelectionInput input = RandomInput(outer, /*bits=*/12, /*n_peers=*/40,
                                       /*n_cores=*/5, /*k=*/6);
    Rng rng(SplitSeed(0x4ad806, static_cast<uint64_t>(trial)));
    auto sel = SelectKademliaOblivious(input, rng);
    ASSERT_TRUE(sel.ok()) << sel.status();
    std::vector<uint64_t> cands = Candidates(input);
    EXPECT_EQ(sel->chosen.size(),
              std::min(static_cast<size_t>(input.k), cands.size()));
    std::unordered_set<uint64_t> cand_set(cands.begin(), cands.end());
    for (uint64_t id : sel->chosen) {
      EXPECT_TRUE(cand_set.count(id)) << "non-candidate chosen: " << id;
      EXPECT_NE(id, input.self_id);
    }
    EXPECT_NEAR(sel->cost, EvaluateKademliaCost(input, sel->chosen),
                RelTol(sel->cost));
    // The optimal selector can never do worse than a frequency-blind draw.
    auto opt = SelectPastryGreedy(input);
    ASSERT_TRUE(opt.ok());
    EXPECT_LE(opt->cost, sel->cost + RelTol(sel->cost));
  }
}

TEST(KademliaSelector, QosAgreesWithPastryQos) {
  // The QoS predicate inherits the same identity as the evaluator.
  Rng rng(0x4ad807);
  for (int trial = 0; trial < 30; ++trial) {
    SelectionInput input = RandomInput(rng, /*bits=*/10, /*n_peers=*/15,
                                       /*n_cores=*/3, /*k=*/3);
    for (PeerFreq& p : input.peers) {
      p.delay_bound = static_cast<int>(rng.UniformU64(
          static_cast<uint64_t>(input.bits) + 1));
    }
    std::vector<uint64_t> cands = Candidates(input);
    std::vector<uint64_t> aux(
        cands.begin(),
        cands.begin() +
            static_cast<long>(rng.UniformU64(cands.size() + 1)));
    EXPECT_EQ(KademliaQosSatisfied(input, aux),
              PastryQosSatisfied(input, aux))
        << "trial " << trial;
  }
}

TEST(KademliaSelector, RejectsInvalidInput) {
  SelectionInput input;
  input.bits = 8;
  input.k = -1;  // negative budget
  input.self_id = 1;
  EXPECT_FALSE(SelectKademliaDp(input).ok());
  EXPECT_FALSE(SelectPastryGreedy(input).ok());
  input.k = 2;
  input.peers.push_back(PeerFreq{1, 5.0, -1});  // peer == self
  EXPECT_FALSE(SelectKademliaDp(input).ok());
  EXPECT_FALSE(SelectPastryGreedy(input).ok());
}

}  // namespace
}  // namespace peercache::auxsel
