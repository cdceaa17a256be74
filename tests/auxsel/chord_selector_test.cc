#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "auxsel/chord_common.h"
#include "auxsel/chord_dp.h"
#include "auxsel/chord_fast.h"
#include "auxsel/selection_types.h"
#include "common/random.h"
#include "test_util.h"

namespace peercache::auxsel {
namespace {

using ::peercache::auxsel::testing::BruteForceBestCost;
using ::peercache::auxsel::testing::RandomInput;

TEST(ChordInstance, BuildsSortedShiftedSuccessors) {
  SelectionInput input;
  input.bits = 8;
  input.self_id = 200;
  input.peers = {{10, 1.0, -1}, {250, 2.0, -1}, {199, 3.0, -1}};
  input.core_ids = {250};
  auto inst_r = BuildChordInstance(input);
  ASSERT_TRUE(inst_r.ok()) << inst_r.status();
  const ChordInstance& inst = inst_r.value();
  ASSERT_EQ(inst.n, 3);
  // Shifted: 250 -> 50, 10 -> 66, 199 -> 255.
  EXPECT_EQ(inst.ids[1], 50u);
  EXPECT_EQ(inst.ids[2], 66u);
  EXPECT_EQ(inst.ids[3], 255u);
  EXPECT_TRUE(inst.is_core[1]);
  EXPECT_FALSE(inst.is_core[2]);
  EXPECT_EQ(inst.orig_id[3], 199u);
  // Candidate list excludes the core.
  ASSERT_EQ(inst.candidates.size(), 2u);
  EXPECT_EQ(inst.candidates[0], 2);
  EXPECT_EQ(inst.candidates[1], 3);
  // core_serve: successor 1 is a core (0); successor 2 served by core at 50:
  // bitlen(16) = 5; successor 3 served by core: bitlen(205) = 8.
  EXPECT_EQ(inst.core_serve[1], 0);
  EXPECT_EQ(inst.core_serve[2], 5);
  EXPECT_EQ(inst.core_serve[3], 8);
}

TEST(ChordInstance, SlowSAgainstHandComputed) {
  SelectionInput input;
  input.bits = 8;
  input.self_id = 0;
  input.peers = {{4, 1.0, -1}, {5, 2.0, -1}, {16, 4.0, -1}, {100, 8.0, -1}};
  auto inst_r = BuildChordInstance(input);
  ASSERT_TRUE(inst_r.ok());
  const ChordInstance& inst = inst_r.value();
  // s(1, 4): peers 5,16,100 served by pointer at 4 (no cores):
  //   bitlen(1)=1, bitlen(12)=4, bitlen(96)=7 -> 2*1 + 4*4 + 8*7 = 74.
  EXPECT_DOUBLE_EQ(inst.SlowS(1, 4), 74.0);
  // s(3, 4): peer 100 served by 16: bitlen(84)=7 -> 8*7 = 56.
  EXPECT_DOUBLE_EQ(inst.SlowS(3, 4), 56.0);
  EXPECT_DOUBLE_EQ(inst.SlowS(4, 4), 0.0);
}

TEST(ChordDp, MatchesBruteForceOnRandomInstances) {
  Rng rng(555001);
  for (int trial = 0; trial < 60; ++trial) {
    const int bits = 4 + static_cast<int>(rng.UniformU64(8));
    const int n = 1 + static_cast<int>(rng.UniformU64(10));
    const int cores = static_cast<int>(rng.UniformU64(3));
    const int k = static_cast<int>(rng.UniformU64(4));
    SelectionInput input = RandomInput(rng, bits, n, cores, k);
    double brute = BruteForceBestCost(input, EvaluateChordCost);
    auto sel = SelectChordDp(input);
    ASSERT_TRUE(sel.ok()) << sel.status();
    EXPECT_NEAR(sel->cost, brute, 1e-9 * (1 + brute))
        << "trial=" << trial << " n=" << n << " k=" << k << " bits=" << bits;
    EXPECT_NEAR(sel->cost, EvaluateChordCost(input, sel->chosen), 1e-9);
  }
}

TEST(ChordFast, MatchesNaiveDpOnRandomInstances) {
  Rng rng(909090);
  for (int trial = 0; trial < 120; ++trial) {
    const int bits = 4 + static_cast<int>(rng.UniformU64(28));
    const int n = 1 + static_cast<int>(rng.UniformU64(80));
    const int cores = static_cast<int>(rng.UniformU64(8));
    const int k = static_cast<int>(rng.UniformU64(10));
    SelectionInput input = RandomInput(rng, bits, n, cores, k);
    auto naive = SelectChordDp(input);
    auto fast = SelectChordFast(input);
    ASSERT_TRUE(naive.ok()) << naive.status();
    ASSERT_TRUE(fast.ok()) << fast.status();
    EXPECT_NEAR(fast->cost, naive->cost, 1e-9 * (1 + naive->cost))
        << "trial=" << trial << " n=" << n << " k=" << k << " bits=" << bits;
  }
}

TEST(ChordFast, LargerRandomizedSweep) {
  Rng rng(123321);
  for (int trial = 0; trial < 10; ++trial) {
    SelectionInput input = RandomInput(rng, 32, 300, 9, 12);
    auto naive = SelectChordDp(input);
    auto fast = SelectChordFast(input);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(fast.ok());
    EXPECT_NEAR(fast->cost, naive->cost, 1e-9 * (1 + naive->cost));
  }
}

TEST(ChordSelectors, ImmediateSuccessorClusterFavored) {
  // All frequency mass lives on three peers far around the ring; a single
  // pointer must land at the first of that cluster (it serves the others).
  SelectionInput input;
  input.bits = 16;
  input.self_id = 0;
  input.peers = {{40000, 50.0, -1}, {40001, 50.0, -1}, {40002, 50.0, -1},
                 {100, 0.0, -1},    {200, 0.0, -1}};
  input.k = 1;
  auto sel = SelectChordDp(input);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->chosen.size(), 1u);
  EXPECT_EQ(sel->chosen[0], 40000u);
  auto fast = SelectChordFast(input);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->chosen, sel->chosen);
}

TEST(ChordSelectors, CostMonotoneInK) {
  Rng rng(161616);
  SelectionInput input = RandomInput(rng, 24, 80, 6, 0);
  double prev = EvaluateChordCost(input, {});
  for (int k = 1; k <= 12; ++k) {
    input.k = k;
    auto sel = SelectChordFast(input);
    ASSERT_TRUE(sel.ok());
    EXPECT_LE(sel->cost, prev + 1e-9) << "k=" << k;
    prev = sel->cost;
  }
}

TEST(ChordSelectors, ChosenNeverContainsCores) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    SelectionInput input = RandomInput(rng, 16, 30, 5, 6);
    auto sel = SelectChordFast(input);
    ASSERT_TRUE(sel.ok());
    for (uint64_t id : sel->chosen) {
      EXPECT_TRUE(std::find(input.core_ids.begin(), input.core_ids.end(),
                            id) == input.core_ids.end())
          << "core chosen as auxiliary";
      EXPECT_NE(id, input.self_id);
    }
    // No duplicates.
    std::set<uint64_t> dedup(sel->chosen.begin(), sel->chosen.end());
    EXPECT_EQ(dedup.size(), sel->chosen.size());
  }
}

TEST(ChordSelectors, EmptyAndDegenerateInstances) {
  SelectionInput input;
  input.bits = 8;
  input.self_id = 7;
  input.k = 3;
  auto sel = SelectChordDp(input);
  ASSERT_TRUE(sel.ok());
  EXPECT_TRUE(sel->chosen.empty());
  EXPECT_EQ(sel->cost, 0.0);

  // Only cores, no observed peers: nothing to optimize.
  input.core_ids = {9, 10};
  sel = SelectChordFast(input);
  ASSERT_TRUE(sel.ok());
  EXPECT_TRUE(sel->chosen.empty());
  EXPECT_EQ(sel->cost, 0.0);
}

TEST(ChordSelectors, SelfInCoreListIsIgnored) {
  SelectionInput input;
  input.bits = 8;
  input.self_id = 7;
  input.peers = {{9, 3.0, -1}};
  input.core_ids = {7};  // degenerate but tolerated
  input.k = 1;
  auto sel = SelectChordFast(input);
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(sel->chosen.size(), 1u);
  EXPECT_EQ(sel->chosen[0], 9u);
}

TEST(ChordFast, ArgminMonotonicityHolds) {
  // Indirect check of the total-monotonicity assumption: on random
  // instances, the best last-pointer index for C_1(m) must be nondecreasing
  // in m (computed by brute scan over s).
  Rng rng(808);
  for (int trial = 0; trial < 20; ++trial) {
    SelectionInput input = RandomInput(rng, 12, 40, 3, 1);
    auto inst_r = BuildChordInstance(input);
    ASSERT_TRUE(inst_r.ok());
    const ChordInstance& inst = inst_r.value();
    int prev_arg = 0;
    for (int m = 1; m <= inst.n; ++m) {
      double best = std::numeric_limits<double>::infinity();
      int arg = 0;
      for (int j : inst.candidates) {
        if (j > m) break;
        double v = inst.B[static_cast<size_t>(j - 1)] + inst.SlowS(j, m);
        if (v < best) {
          best = v;
          arg = j;
        }
      }
      if (arg != 0) {
        EXPECT_GE(arg, prev_arg) << "argmin not monotone at m=" << m;
        prev_arg = arg;
      }
    }
  }
}

TEST(ChordFastPlan, SEqualsSlowSExactly) {
  // Integer frequencies make every s(j, m) an exact integer, so the O(1)
  // jump-table form must equal the O(m - j) definition bit for bit. Dense
  // ids in small spaces put successors exactly on the arc ends
  // id_j + 2^r - 1; at b = 64 those ends overflow for the top r. An
  // all-core input builds a plan with no rows.
  struct Shape {
    int bits;
    int n_peers;
    int n_cores;
    bool all_core;
  };
  const Shape kShapes[] = {
      {4, 15, 0, false},   {8, 1, 0, false},     {8, 200, 0, false},
      {8, 120, 40, false}, {10, 250, 12, false}, {32, 250, 12, false},
      {64, 1, 1, false},   {64, 250, 12, false}, {64, 200, 0, false},
      {16, 30, 0, true}};
  Rng rng(0x5105);
  for (const Shape& s : kShapes) {
    for (int trial = 0; trial < 4; ++trial) {
      SelectionInput input =
          RandomInput(rng, s.bits, s.n_peers, s.n_cores, /*k=*/3);
      for (PeerFreq& p : input.peers) {
        p.frequency = static_cast<double>(1 + rng.UniformU64(9));
        if (s.all_core) input.core_ids.push_back(p.id);
      }
      auto plan = ChordFastPlan::Build(input);
      ASSERT_TRUE(plan.ok()) << plan.status();
      const ChordInstance& inst = plan->instance();
      if (s.all_core) {
        EXPECT_TRUE(inst.candidates.empty());
      }
      for (int j : inst.candidates) {
        for (int m = j; m <= inst.n; ++m) {
          ASSERT_EQ(plan->S(j, m), inst.SlowS(j, m))
              << "bits " << s.bits << " n " << inst.n << " j " << j << " m "
              << m;
        }
      }
    }
  }
}

}  // namespace
}  // namespace peercache::auxsel
