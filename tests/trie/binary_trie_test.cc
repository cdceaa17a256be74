#include "trie/binary_trie.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <vector>

#include "common/bits.h"
#include "common/random.h"

namespace peercache::trie {
namespace {

LeafInfo MakeLeaf(uint64_t id, double f, bool core = false) {
  LeafInfo leaf;
  leaf.id = id;
  leaf.frequency = f;
  leaf.is_core = core;
  return leaf;
}

TEST(BinaryTrie, EmptyTrie) {
  BinaryTrie t(8);
  EXPECT_EQ(t.root(), BinaryTrie::kNil);
  EXPECT_EQ(t.leaf_count(), 0u);
  EXPECT_TRUE(t.CheckInvariants().ok());
  EXPECT_FALSE(t.Contains(3));
}

TEST(BinaryTrie, SingleInsert) {
  BinaryTrie t(8);
  auto r = t.Insert(MakeLeaf(0b10110001, 3.0));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(t.Contains(0b10110001));
  EXPECT_EQ(t.leaf_count(), 1u);
  ASSERT_TRUE(t.CheckInvariants().ok());
  // Root at depth 0, leaf at depth 8, edge length 8.
  int leaf = t.FindLeaf(0b10110001);
  EXPECT_EQ(t.Depth(leaf), 8);
  EXPECT_EQ(t.EdgeLength(leaf), 8);
  EXPECT_EQ(t.Parent(leaf), t.root());
  EXPECT_DOUBLE_EQ(t.SubtreeFrequency(t.root()), 3.0);
}

TEST(BinaryTrie, SplitCreatesBranchAtLcp) {
  BinaryTrie t(8);
  ASSERT_TRUE(t.Insert(MakeLeaf(0b10110000, 1.0)).ok());
  ASSERT_TRUE(t.Insert(MakeLeaf(0b10111100, 2.0)).ok());
  ASSERT_TRUE(t.CheckInvariants().ok());
  int a = t.FindLeaf(0b10110000);
  int b = t.FindLeaf(0b10111100);
  // lcp = 4 -> common ancestor at depth 4.
  EXPECT_EQ(t.Parent(a), t.Parent(b));
  EXPECT_EQ(t.Depth(t.Parent(a)), 4);
  EXPECT_DOUBLE_EQ(t.SubtreeFrequency(t.Parent(a)), 3.0);
}

TEST(BinaryTrie, RejectsDuplicatesAndOutOfRange) {
  BinaryTrie t(8);
  ASSERT_TRUE(t.Insert(MakeLeaf(5, 1.0)).ok());
  EXPECT_EQ(t.Insert(MakeLeaf(5, 2.0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Insert(MakeLeaf(256, 1.0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Insert(MakeLeaf(6, -1.0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Remove(9).status().code(), StatusCode::kNotFound);
}

TEST(BinaryTrie, RemoveSplicesUnaryVertices) {
  BinaryTrie t(8);
  ASSERT_TRUE(t.Insert(MakeLeaf(0b10110000, 1.0)).ok());
  ASSERT_TRUE(t.Insert(MakeLeaf(0b10111100, 2.0)).ok());
  ASSERT_TRUE(t.Insert(MakeLeaf(0b00000001, 4.0)).ok());
  ASSERT_TRUE(t.CheckInvariants().ok());
  ASSERT_TRUE(t.Remove(0b10111100).ok());
  ASSERT_TRUE(t.CheckInvariants().ok());
  // The depth-4 branch vertex must be gone: remaining leaf hangs off root's
  // 1-branch directly.
  int a = t.FindLeaf(0b10110000);
  EXPECT_EQ(t.Parent(a), t.root());
  EXPECT_EQ(t.leaf_count(), 2u);
}

TEST(BinaryTrie, RemoveToEmpty) {
  BinaryTrie t(8);
  ASSERT_TRUE(t.Insert(MakeLeaf(1, 1.0)).ok());
  ASSERT_TRUE(t.Insert(MakeLeaf(2, 1.0)).ok());
  ASSERT_TRUE(t.Remove(1).ok());
  ASSERT_TRUE(t.Remove(2).ok());
  EXPECT_EQ(t.root(), BinaryTrie::kNil);
  EXPECT_EQ(t.leaf_count(), 0u);
  EXPECT_TRUE(t.CheckInvariants().ok());
  // Reusable after emptying.
  ASSERT_TRUE(t.Insert(MakeLeaf(3, 1.0)).ok());
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(BinaryTrie, AggregatesTrackCoreAndCandidates) {
  BinaryTrie t(8);
  ASSERT_TRUE(t.Insert(MakeLeaf(1, 1.0)).ok());
  ASSERT_TRUE(t.Insert(MakeLeaf(2, 2.0, /*core=*/true)).ok());
  EXPECT_EQ(t.CandidateCount(t.root()), 1);
  EXPECT_TRUE(t.SubtreeHasNeighbor(t.root()));
  ASSERT_TRUE(t.SetCore(2, false).ok());
  EXPECT_EQ(t.CandidateCount(t.root()), 2);
  EXPECT_FALSE(t.SubtreeHasNeighbor(t.root()));
  ASSERT_TRUE(t.SetPreselected(1, true).ok());
  EXPECT_EQ(t.CandidateCount(t.root()), 1);
  EXPECT_TRUE(t.SubtreeHasNeighbor(t.root()));
  ASSERT_TRUE(t.CheckInvariants().ok());
}

TEST(BinaryTrie, UpdateFrequencyPropagates) {
  BinaryTrie t(8);
  ASSERT_TRUE(t.Insert(MakeLeaf(1, 1.0)).ok());
  ASSERT_TRUE(t.Insert(MakeLeaf(200, 2.0)).ok());
  ASSERT_TRUE(t.UpdateFrequency(1, 10.0).ok());
  EXPECT_DOUBLE_EQ(t.SubtreeFrequency(t.root()), 12.0);
  ASSERT_TRUE(t.CheckInvariants().ok());
  EXPECT_EQ(t.UpdateFrequency(1, -3.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BinaryTrie, PairwiseDistanceEqualsHeightOfCommonAncestor) {
  // Proposition 4.1: pastry distance = bits - depth(LCA) for every pair.
  Rng rng(31415);
  const int bits = 10;
  BinaryTrie t(bits);
  auto ids = rng.SampleDistinct(uint64_t{1} << bits, 60);
  for (uint64_t id : ids) ASSERT_TRUE(t.Insert(MakeLeaf(id, 1.0)).ok());
  ASSERT_TRUE(t.CheckInvariants().ok());
  for (size_t i = 0; i < ids.size(); i += 7) {
    for (size_t j = 0; j < ids.size(); j += 5) {
      if (i == j) continue;
      // Find LCA by climbing from the deeper leaf.
      int a = t.FindLeaf(ids[i]);
      int b = t.FindLeaf(ids[j]);
      std::set<int> a_path;
      for (int v = a; v != BinaryTrie::kNil; v = t.Parent(v)) a_path.insert(v);
      int lca = b;
      while (!a_path.count(lca)) lca = t.Parent(lca);
      EXPECT_EQ(bits - t.Depth(lca),
                bits - CommonPrefixLength(ids[i], ids[j], bits));
    }
  }
}

TEST(BinaryTrie, RandomizedMutationsKeepInvariants) {
  Rng rng(2718);
  const int bits = 12;
  BinaryTrie t(bits);
  std::map<uint64_t, double> shadow;
  for (int step = 0; step < 2000; ++step) {
    uint64_t id = rng.UniformU64(uint64_t{1} << bits);
    int op = static_cast<int>(rng.UniformU64(3));
    if (op == 0) {
      double f = static_cast<double>(rng.UniformU64(100));
      if (shadow.count(id)) {
        EXPECT_FALSE(t.Insert(MakeLeaf(id, f)).ok());
      } else {
        ASSERT_TRUE(t.Insert(MakeLeaf(id, f)).ok());
        shadow[id] = f;
      }
    } else if (op == 1 && !shadow.empty()) {
      if (shadow.count(id)) {
        ASSERT_TRUE(t.Remove(id).ok());
        shadow.erase(id);
      } else {
        EXPECT_FALSE(t.Remove(id).ok());
      }
    } else if (shadow.count(id)) {
      double f = static_cast<double>(rng.UniformU64(100));
      ASSERT_TRUE(t.UpdateFrequency(id, f).ok());
      shadow[id] = f;
    }
    if (step % 100 == 0) {
      ASSERT_TRUE(t.CheckInvariants().ok()) << "step " << step;
      EXPECT_EQ(t.leaf_count(), shadow.size());
      double total = 0;
      for (auto& [i, f] : shadow) total += f;
      if (t.root() != BinaryTrie::kNil) {
        EXPECT_NEAR(t.SubtreeFrequency(t.root()), total, 1e-9);
      }
    }
  }
}

/// Walks from the root to `id`'s leaf by the id's bits, recording at each
/// vertex its depth, the exact bits of its subtree frequency, its candidate
/// count and whether its subtree holds a neighbor.
std::vector<uint64_t> RootPath(const BinaryTrie& t, uint64_t id) {
  std::vector<uint64_t> path;
  int v = t.root();
  while (v != BinaryTrie::kNil) {
    path.push_back(static_cast<uint64_t>(t.Depth(v)));
    path.push_back(std::bit_cast<uint64_t>(t.SubtreeFrequency(v)));
    path.push_back(static_cast<uint64_t>(t.CandidateCount(v)));
    path.push_back(t.SubtreeHasNeighbor(v) ? 1 : 0);
    if (t.IsLeaf(v)) break;
    v = t.Child(v, IdBit(id, t.bits(), t.Depth(v)));
  }
  return path;
}

TEST(BinaryTrie, BottomUpBuildEqualsInsertBuild) {
  Rng rng(0xb07704);
  for (int bits : {1, 2, 8, 32, 64}) {
    for (size_t n : {0, 1, 2, 3, 10, 100, 1000}) {
      const uint64_t bound = bits == 64 ? ~uint64_t{0} : uint64_t{1} << bits;
      const auto ids = rng.SampleDistinct(bound, std::min<uint64_t>(n, bound));
      std::vector<LeafInfo> leaves;
      for (uint64_t id : ids) {
        // Non-integer frequencies so that any change in summation order
        // shows in the bits.
        LeafInfo leaf = MakeLeaf(id, rng.UniformDouble() * 100.0,
                                 rng.Bernoulli(0.2));
        leaf.preselected = rng.Bernoulli(0.1);
        leaf.delay_bound = static_cast<int>(rng.UniformInt(-1, bits));
        leaves.push_back(leaf);
      }
      BinaryTrie inserted(bits);
      for (const LeafInfo& leaf : leaves) {
        ASSERT_TRUE(inserted.Insert(leaf).ok());
      }
      std::sort(leaves.begin(), leaves.end(),
                [](const LeafInfo& a, const LeafInfo& b) {
                  return a.id < b.id;
                });
      const BinaryTrie built = BinaryTrie::FromSortedLeaves(bits, leaves);

      ASSERT_TRUE(built.CheckInvariants().ok())
          << built.CheckInvariants() << " bits " << bits << " n " << n;
      ASSERT_TRUE(inserted.CheckInvariants().ok())
          << inserted.CheckInvariants();
      EXPECT_EQ(built.leaf_count(), inserted.leaf_count());
      EXPECT_EQ(built.vertex_count(), inserted.vertex_count());
      EXPECT_EQ(built.root() == BinaryTrie::kNil,
                inserted.root() == BinaryTrie::kNil);
      for (const LeafInfo& leaf : leaves) {
        EXPECT_EQ(RootPath(built, leaf.id), RootPath(inserted, leaf.id))
            << "bits " << bits << " n " << n << " id " << leaf.id;
        const LeafInfo& got = built.LeafAt(built.FindLeaf(leaf.id));
        EXPECT_EQ(got.frequency, leaf.frequency);
        EXPECT_EQ(got.is_core, leaf.is_core);
        EXPECT_EQ(got.preselected, leaf.preselected);
        EXPECT_EQ(got.delay_bound, leaf.delay_bound);
      }
    }
  }
}

TEST(BinaryTrie, VersionBumpsOnMutation) {
  BinaryTrie t(8);
  uint64_t v0 = t.version();
  ASSERT_TRUE(t.Insert(MakeLeaf(1, 1.0)).ok());
  EXPECT_GT(t.version(), v0);
  uint64_t v1 = t.version();
  ASSERT_TRUE(t.UpdateFrequency(1, 2.0).ok());
  EXPECT_GT(t.version(), v1);
}

TEST(BinaryTrie, AllLeavesReturnsEveryId) {
  BinaryTrie t(8);
  std::set<uint64_t> want{3, 77, 200, 254};
  for (uint64_t id : want) ASSERT_TRUE(t.Insert(MakeLeaf(id, 1.0)).ok());
  std::set<uint64_t> got;
  for (int v : t.AllLeaves()) got.insert(t.LeafAt(v).id);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace peercache::trie
