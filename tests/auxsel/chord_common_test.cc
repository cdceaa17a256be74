#include "auxsel/chord_common.h"

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/random.h"
#include "test_util.h"

namespace peercache::auxsel {
namespace {

using ::peercache::auxsel::testing::RandomInput;

TEST(ChordInstance, EmptyInput) {
  SelectionInput input;
  input.bits = 8;
  input.self_id = 3;
  auto inst = BuildChordInstance(input);
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(inst->n, 0);
  EXPECT_TRUE(inst->candidates.empty());
}

TEST(ChordInstance, HopMatchesIdSpaceEstimate) {
  SelectionInput input;
  input.bits = 8;
  input.self_id = 100;
  input.peers = {{110, 1.0, -1}, {200, 2.0, -1}, {50, 3.0, -1}};
  auto inst_r = BuildChordInstance(input);
  ASSERT_TRUE(inst_r.ok());
  const ChordInstance& inst = inst_r.value();
  // Shifted: 110 -> 10, 200 -> 100, 50 -> 206.
  EXPECT_EQ(inst.Hop(0, 1), BitLength(10));
  EXPECT_EQ(inst.Hop(1, 2), BitLength(90));
  EXPECT_EQ(inst.Hop(1, 1), 0);
  EXPECT_EQ(inst.Hop(2, 3), BitLength(106));
}

TEST(ChordInstance, PrefixSumsConsistent) {
  Rng rng(606);
  for (int trial = 0; trial < 30; ++trial) {
    SelectionInput input = RandomInput(rng, 16, 40, 5, 4);
    auto inst_r = BuildChordInstance(input);
    ASSERT_TRUE(inst_r.ok());
    const ChordInstance& inst = inst_r.value();
    // F is the prefix sum of freq; B is the prefix sum of core-served cost.
    double f = 0, b = 0;
    for (int l = 1; l <= inst.n; ++l) {
      f += inst.freq[static_cast<size_t>(l)];
      b += inst.freq[static_cast<size_t>(l)] *
           inst.core_serve[static_cast<size_t>(l)];
      EXPECT_NEAR(inst.F[static_cast<size_t>(l)], f, 1e-9);
      EXPECT_NEAR(inst.B[static_cast<size_t>(l)], b, 1e-9);
    }
    // ids strictly ascending; next_core consistent with is_core.
    for (int l = 2; l <= inst.n; ++l) {
      EXPECT_GT(inst.ids[static_cast<size_t>(l)],
                inst.ids[static_cast<size_t>(l - 1)]);
    }
    for (int j = 0; j <= inst.n; ++j) {
      int nc = inst.next_core[static_cast<size_t>(j)];
      for (int l = j + 1; l < nc && l <= inst.n; ++l) {
        EXPECT_FALSE(inst.is_core[static_cast<size_t>(l)]);
      }
      if (nc <= inst.n) {
        EXPECT_TRUE(inst.is_core[static_cast<size_t>(nc)]);
      }
    }
  }
}

TEST(ChordInstance, CoreServeIsBestCoreAtOrBefore) {
  Rng rng(707);
  for (int trial = 0; trial < 20; ++trial) {
    SelectionInput input = RandomInput(rng, 12, 30, 6, 0);
    auto inst_r = BuildChordInstance(input);
    ASSERT_TRUE(inst_r.ok());
    const ChordInstance& inst = inst_r.value();
    for (int l = 1; l <= inst.n; ++l) {
      int best = inst.bits;
      for (int c = 1; c <= l; ++c) {
        if (inst.is_core[static_cast<size_t>(c)]) {
          best = std::min(best, inst.Hop(c, l));
        }
      }
      EXPECT_EQ(inst.core_serve[static_cast<size_t>(l)], best) << "l=" << l;
    }
  }
}

TEST(ChordInstance, SlowSAdditiveOverRanges) {
  // s(j, m) accumulates per-successor costs, so s(j, m+1) - s(j, m) is the
  // served cost of successor m+1.
  Rng rng(808);
  SelectionInput input = RandomInput(rng, 16, 25, 4, 0);
  auto inst_r = BuildChordInstance(input);
  ASSERT_TRUE(inst_r.ok());
  const ChordInstance& inst = inst_r.value();
  for (int j : inst.candidates) {
    for (int m = j; m < inst.n; ++m) {
      const double delta = inst.SlowS(j, m + 1) - inst.SlowS(j, m);
      const int nc = inst.next_core[static_cast<size_t>(j)];
      const int d = (m + 1 < nc) ? inst.Hop(j, m + 1)
                                 : inst.core_serve[static_cast<size_t>(m + 1)];
      EXPECT_NEAR(delta, inst.freq[static_cast<size_t>(m + 1)] * d, 1e-9);
    }
  }
}

TEST(ChordInstance, MergesDuplicateCorePeer) {
  SelectionInput input;
  input.bits = 8;
  input.self_id = 0;
  input.peers = {{10, 5.0, -1}};
  input.core_ids = {10};  // same node is both observed and core
  auto inst_r = BuildChordInstance(input);
  ASSERT_TRUE(inst_r.ok());
  EXPECT_EQ(inst_r->n, 1);
  EXPECT_TRUE(inst_r->is_core[1]);
  EXPECT_DOUBLE_EQ(inst_r->freq[1], 5.0);  // frequency retained
  EXPECT_TRUE(inst_r->candidates.empty());
}

}  // namespace
}  // namespace peercache::auxsel
