#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>
#include <vector>

#include "auxsel/pastry_greedy.h"
#include "auxsel/pastry_maintainer.h"
#include "auxsel/selection_types.h"
#include "common/random.h"
#include "maintainer_test_util.h"
#include "test_util.h"

namespace peercache::auxsel {
namespace {

using ::peercache::auxsel::testing::RandomInput;
using ::peercache::auxsel::testing::ReplayDeltasAgainstFresh;

/// Reference: rebuild a fresh gain tree from the current logical state and
/// compare selections by cost.
double FreshCost(const SelectionInput& state) {
  auto sel = SelectPastryGreedy(state);
  EXPECT_TRUE(sel.ok()) << sel.status();
  return sel->cost;
}

TEST(PastryIncremental, AddPeersMatchesFreshBuild) {
  Rng rng(1001);
  const int bits = 16;
  const int k = 5;
  PastryGainTree tree(bits, k);
  SelectionInput state;
  state.bits = bits;
  state.k = k;
  state.self_id = 12345;

  auto ids = rng.SampleDistinct(uint64_t{1} << bits, 41);
  for (size_t i = 0; i < 40; ++i) {
    uint64_t id = ids[i];
    if (id == state.self_id) continue;
    double f = static_cast<double>(rng.UniformU64(1000));
    ASSERT_TRUE(tree.AddPeer(id, f).ok());
    state.peers.push_back(PeerFreq{id, f, -1});

    auto inc_sel = tree.SelectAuxiliary();
    double inc_cost = EvaluatePastryCost(state, inc_sel);
    EXPECT_NEAR(inc_cost, FreshCost(state), 1e-9 * (1 + inc_cost))
        << "after insert #" << i;
  }
}

TEST(PastryIncremental, MixedMutationStreamMatchesFreshBuild) {
  Rng rng(2002);
  const int bits = 12;
  const int k = 4;
  PastryGainTree tree(bits, k);
  SelectionInput state;
  state.bits = bits;
  state.k = k;
  state.self_id = 99;

  std::unordered_map<uint64_t, size_t> pos;  // id -> index in state.peers
  for (int step = 0; step < 300; ++step) {
    const int op = static_cast<int>(rng.UniformU64(4));
    if (op == 0 || state.peers.size() < 3) {
      // Insert a fresh id.
      uint64_t id = rng.UniformU64(uint64_t{1} << bits);
      if (id == state.self_id || pos.count(id)) continue;
      double f = static_cast<double>(rng.UniformU64(500));
      ASSERT_TRUE(tree.AddPeer(id, f).ok());
      pos[id] = state.peers.size();
      state.peers.push_back(PeerFreq{id, f, -1});
    } else if (op == 1) {
      // Remove a random peer.
      size_t i = static_cast<size_t>(rng.UniformU64(state.peers.size()));
      uint64_t id = state.peers[i].id;
      ASSERT_TRUE(tree.RemovePeer(id).ok());
      pos.erase(id);
      state.peers[i] = state.peers.back();
      state.peers.pop_back();
      if (i < state.peers.size()) pos[state.peers[i].id] = i;
      // Keep core list consistent: drop removed cores.
      state.core_ids.erase(
          std::remove(state.core_ids.begin(), state.core_ids.end(), id),
          state.core_ids.end());
    } else if (op == 2) {
      // Re-weight (popularity change, paper Sec. IV-C).
      size_t i = static_cast<size_t>(rng.UniformU64(state.peers.size()));
      double f = static_cast<double>(rng.UniformU64(500));
      ASSERT_TRUE(tree.UpdateFrequency(state.peers[i].id, f).ok());
      state.peers[i].frequency = f;
    } else {
      // Toggle core status.
      size_t i = static_cast<size_t>(rng.UniformU64(state.peers.size()));
      uint64_t id = state.peers[i].id;
      bool is_core = std::find(state.core_ids.begin(), state.core_ids.end(),
                               id) != state.core_ids.end();
      ASSERT_TRUE(tree.SetCore(id, !is_core).ok());
      if (is_core) {
        state.core_ids.erase(
            std::remove(state.core_ids.begin(), state.core_ids.end(), id),
            state.core_ids.end());
      } else {
        state.core_ids.push_back(id);
      }
    }

    if (step % 10 == 0) {
      auto inc_sel = tree.SelectAuxiliary();
      double inc_cost = EvaluatePastryCost(state, inc_sel);
      EXPECT_NEAR(inc_cost, FreshCost(state), 1e-9 * (1 + inc_cost))
          << "after step " << step;
      ASSERT_TRUE(tree.trie().CheckInvariants().ok());
    }
  }
  // Final deep consistency: every cached gain list equals a full recompute.
  EXPECT_TRUE(tree.CheckConsistency().ok());
}

/// Bit-exact equality of two gain trees' root lists.
void ExpectSameRootList(const PastryGainTree& a, const PastryGainTree& b,
                        const std::string& when) {
  const int ra = a.trie().root();
  const int rb = b.trie().root();
  ASSERT_EQ(ra == trie::BinaryTrie::kNil, rb == trie::BinaryTrie::kNil)
      << when;
  if (ra == trie::BinaryTrie::kNil) return;
  const std::vector<GainEntry>& la = a.GainsAt(ra);
  const std::vector<GainEntry>& lb = b.GainsAt(rb);
  ASSERT_EQ(la.size(), lb.size()) << when;
  for (size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].id, lb[i].id) << when << ", entry " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(la[i].gain),
              std::bit_cast<uint64_t>(lb[i].gain))
        << when << ", entry " << i;
  }
}

TEST(PastryIncremental, BottomUpAndInsertBuiltTreesAgreeUnderDeltas) {
  Rng rng(0xb07705);
  for (int bits : {8, 32, 64}) {
    for (int k : {1, 4, 14}) {
      SelectionInput input = RandomInput(rng, bits, /*n_peers=*/120,
                                         /*n_cores=*/10, k);
      for (PeerFreq& p : input.peers) {
        p.frequency = static_cast<double>(1 + rng.UniformU64(3));  // ties
      }
      auto built_r = PastryGainTree::FromInput(input);
      ASSERT_TRUE(built_r.ok()) << built_r.status();
      PastryGainTree& built = built_r.value();
      PastryGainTree inserted(bits, k);
      for (const PeerFreq& p : input.peers) {
        ASSERT_TRUE(inserted.AddPeer(p.id, p.frequency).ok());
      }
      for (uint64_t c : input.core_ids) {
        ASSERT_TRUE((inserted.trie().Contains(c)
                         ? inserted.SetCore(c, true)
                         : inserted.AddPeer(c, 0.0, /*is_core=*/true))
                        .ok());
      }
      ExpectSameRootList(built, inserted, "after build");

      std::vector<uint64_t> present;
      for (int leaf : built.trie().AllLeaves()) {
        present.push_back(built.trie().LeafAt(leaf).id);
      }
      std::sort(present.begin(), present.end());
      const uint64_t bound =
          bits == 64 ? ~uint64_t{0} : uint64_t{1} << bits;
      for (int step = 0; step < 200; ++step) {
        const uint64_t op = rng.UniformU64(4);
        if (op == 0 || present.empty()) {
          const uint64_t id = rng.UniformU64(bound);
          if (id == input.self_id || built.trie().Contains(id)) continue;
          const double f = static_cast<double>(rng.UniformU64(4));
          ASSERT_TRUE(built.AddPeer(id, f).ok());
          ASSERT_TRUE(inserted.AddPeer(id, f).ok());
          present.push_back(id);
          continue;
        }
        const size_t i = rng.UniformU64(present.size());
        const uint64_t id = present[i];
        if (op == 1) {
          ASSERT_TRUE(built.RemovePeer(id).ok());
          ASSERT_TRUE(inserted.RemovePeer(id).ok());
          present[i] = present.back();
          present.pop_back();
        } else if (op == 2) {
          const double f = static_cast<double>(rng.UniformU64(4));
          ASSERT_TRUE(built.UpdateFrequency(id, f).ok());
          ASSERT_TRUE(inserted.UpdateFrequency(id, f).ok());
        } else {
          const trie::BinaryTrie& t = built.trie();
          const bool core = !t.LeafAt(t.FindLeaf(id)).is_core;
          ASSERT_TRUE(built.SetCore(id, core).ok());
          ASSERT_TRUE(inserted.SetCore(id, core).ok());
        }
        if (step % 20 == 19) {
          ExpectSameRootList(built, inserted,
                             "after step " + std::to_string(step));
        }
      }
      ASSERT_TRUE(built.trie().CheckInvariants().ok());
      EXPECT_TRUE(built.CheckConsistency().ok());
      EXPECT_TRUE(inserted.CheckConsistency().ok());
      ExpectSameRootList(built, inserted, "at the end");
    }
  }
}

TEST(PastryIncremental, RemoveToEmptyAndRebuild) {
  PastryGainTree tree(8, 2);
  ASSERT_TRUE(tree.AddPeer(1, 5.0).ok());
  ASSERT_TRUE(tree.AddPeer(2, 6.0).ok());
  ASSERT_TRUE(tree.RemovePeer(1).ok());
  ASSERT_TRUE(tree.RemovePeer(2).ok());
  EXPECT_TRUE(tree.SelectAuxiliary().empty());
  ASSERT_TRUE(tree.AddPeer(3, 1.0).ok());
  auto sel = tree.SelectAuxiliary();
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0], 3u);
}

TEST(PastryIncremental, ErrorsOnBadMutations) {
  PastryGainTree tree(8, 2);
  ASSERT_TRUE(tree.AddPeer(1, 5.0).ok());
  EXPECT_EQ(tree.AddPeer(1, 2.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.RemovePeer(9).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree.UpdateFrequency(9, 1.0).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree.AddPeer(300, 1.0).code(), StatusCode::kInvalidArgument)
      << "id out of range for 8-bit space";
}

TEST(PastryMaintainer, RandomDeltaStreamMatchesFreshSelect) {
  Rng rng(0xab01);
  PastryAuxMaintainer m(/*bits=*/12, /*k=*/4, /*self_id=*/99);
  ReplayDeltasAgainstFresh(m, SelectPastryGreedy, EvaluatePastryCost, rng,
                           /*steps=*/250);
}

TEST(PastryMaintainer, SecondSeedAndLargerBudget) {
  Rng rng(0xab02);
  PastryAuxMaintainer m(/*bits=*/16, /*k=*/8, /*self_id=*/0x4321);
  ReplayDeltasAgainstFresh(m, SelectPastryGreedy, EvaluatePastryCost, rng,
                           /*steps=*/200);
}

TEST(PastryMaintainer, IncrementalCostPricingMatchesEq1) {
  // The maintainer prices Cost(N ∪ A) as BaseCost − TotalGain via the trie
  // prefix-sum walk; pin it against the reference evaluator on a handmade
  // instance where the numbers are easy to audit.
  PastryAuxMaintainer m(/*bits=*/8, /*k=*/1, /*self_id=*/0);
  ASSERT_TRUE(m.OnPeerJoin(0b10000000, 10.0).ok());
  ASSERT_TRUE(m.OnPeerJoin(0b10000001, 5.0).ok());
  ASSERT_TRUE(m.SetCores({0b01000000}).ok());
  auto sel = m.Reselect();
  ASSERT_TRUE(sel.ok());
  EXPECT_NEAR(sel->cost, EvaluatePastryCost(m.FreshInput(), sel->chosen),
              1e-12);
}

TEST(PastryMaintainer, DepartedCoreStaysUntilSetCoresDropsIt) {
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
  auto ref = SelectPastryGreedy(m.FreshInput());
  ASSERT_TRUE(ref.ok());
  EXPECT_NEAR(inc->cost, ref->cost, 1e-12);
}

TEST(PastryMaintainer, EmptyStateSelectsNothing) {
  PastryAuxMaintainer m(/*bits=*/8, /*k=*/3, /*self_id=*/7);
  auto sel = m.Reselect();
  ASSERT_TRUE(sel.ok()) << sel.status();
  EXPECT_TRUE(sel->chosen.empty());
  EXPECT_EQ(sel->cost, 0.0);
  EXPECT_EQ(m.total_frequency(), 0.0);
}

TEST(PastryMaintainer, NoDeltasReturnsCachedSelection) {
  Rng rng(0xab03);
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

TEST(PastryIncremental, PreselectedExcludedFromCandidates) {
  PastryGainTree tree(8, 3);
  ASSERT_TRUE(tree.AddPeer(0b10000000, 50.0).ok());
  ASSERT_TRUE(tree.AddPeer(0b01000000, 10.0).ok());
  ASSERT_TRUE(tree.SetPreselected(0b10000000, true).ok());
  auto sel = tree.SelectAuxiliary();
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0], 0b01000000u);
}

}  // namespace
}  // namespace peercache::auxsel
