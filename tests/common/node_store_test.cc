#include "common/node_store.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"

namespace peercache::overlay {
namespace {

struct TestNode {
  int tag = 0;
  explicit TestNode(int t) : tag(t) {}
};

TEST(NodeStore, EmplaceCreatesOnceAndReturnsExisting) {
  NodeStore<TestNode> store;
  auto [first, inserted] = store.Emplace(42, 7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(first->tag, 7);

  auto [again, reinserted] = store.Emplace(42, 99);
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(again, first);
  EXPECT_EQ(again->tag, 7);  // original construction args win
  EXPECT_EQ(store.size(), 1u);
}

TEST(NodeStore, LivenessIsSeparateFromExistence) {
  NodeStore<TestNode> store;
  store.Emplace(5, 0);
  EXPECT_FALSE(store.IsAlive(5));  // exists but not yet marked
  EXPECT_FALSE(store.IsAlive(6));  // never added

  store.MarkAlive(5);
  EXPECT_TRUE(store.IsAlive(5));
  EXPECT_EQ(store.live_count(), 1u);

  store.MarkDead(5);
  EXPECT_FALSE(store.IsAlive(5));
  EXPECT_EQ(store.live_count(), 0u);
  EXPECT_NE(store.Get(5), nullptr);  // record survives death
}

TEST(NodeStore, MarkAliveAndDeadAreIdempotent) {
  NodeStore<TestNode> store;
  store.Emplace(9, 0);
  store.MarkAlive(9);
  store.MarkAlive(9);
  EXPECT_EQ(store.live_count(), 1u);
  store.MarkDead(9);
  store.MarkDead(9);
  EXPECT_EQ(store.live_count(), 0u);
}

TEST(NodeStore, LiveIdsStaySortedUnderArbitraryChurn) {
  NodeStore<TestNode> store;
  const std::vector<uint64_t> ids = {90, 10, 50, 70, 30, 20, 80};
  for (uint64_t id : ids) {
    store.Emplace(id, 0);
    store.MarkAlive(id);
  }
  EXPECT_EQ(store.live_ids(),
            (std::vector<uint64_t>{10, 20, 30, 50, 70, 80, 90}));

  store.MarkDead(50);
  store.MarkDead(10);
  EXPECT_EQ(store.live_ids(), (std::vector<uint64_t>{20, 30, 70, 80, 90}));

  store.MarkAlive(10);  // rejoin
  EXPECT_EQ(store.live_ids(), (std::vector<uint64_t>{10, 20, 30, 70, 80, 90}));
  // Parallel slot array stays consistent with the id array.
  for (size_t i = 0; i < store.live_ids().size(); ++i) {
    EXPECT_EQ(&store.at_slot(store.live_slot(i)),
              store.Get(store.live_ids()[i]));
  }
}

TEST(NodeStore, BinarySearchesMatchSortedSemantics) {
  NodeStore<TestNode> store;
  for (uint64_t id : {10, 20, 30}) {
    store.Emplace(id, 0);
    store.MarkAlive(id);
  }
  EXPECT_EQ(store.LowerBoundLive(20), 1u);
  EXPECT_EQ(store.UpperBoundLive(20), 2u);
  EXPECT_EQ(store.LowerBoundLive(15), 1u);
  EXPECT_EQ(store.UpperBoundLive(35), 3u);
}

TEST(NodeStore, BulkMarkAliveMatchesIncrementalMarkAlive) {
  // The merge-based bulk path must leave the live arrays exactly as the
  // one-at-a-time sorted insertions would.
  const std::vector<uint64_t> first = {90, 10, 50};
  const std::vector<uint64_t> second = {70, 30, 50, 20};  // 50 already live

  NodeStore<TestNode> bulk;
  NodeStore<TestNode> incremental;
  for (uint64_t id : first) {
    bulk.Emplace(id, 0);
    incremental.Emplace(id, 0);
    incremental.MarkAlive(id);
  }
  bulk.BulkMarkAlive(first);
  EXPECT_EQ(bulk.live_ids(), incremental.live_ids());

  for (uint64_t id : second) {
    bulk.Emplace(id, 0);
    incremental.Emplace(id, 0);
    incremental.MarkAlive(id);
  }
  bulk.BulkMarkAlive(second);
  EXPECT_EQ(bulk.live_ids(), incremental.live_ids());
  for (size_t i = 0; i < bulk.live_ids().size(); ++i) {
    EXPECT_EQ(&bulk.at_slot(bulk.live_slot(i)),
              bulk.Get(bulk.live_ids()[i]));
  }
}

// Runs in every build type: an id that was never added must leave the
// store untouched (with asserts compiled out, the old guard indexed
// alive_[kNoSlot]).
TEST(NodeStore, UnknownIdsLeaveTheStoreUnchanged) {
  NodeStore<TestNode> store;
  for (uint64_t id : {10, 20, 30}) store.Emplace(id, 0);
  store.MarkAlive(10);
  store.MarkAlive(30);
  const std::vector<uint64_t> live = store.live_ids();

  store.MarkAlive(15);
  store.MarkDead(25);
  EXPECT_FALSE(store.IsAlive(15));
  EXPECT_EQ(store.live_ids(), live);
  EXPECT_EQ(store.size(), 3u);

  // Bulk: the unknown ids are skipped, the known dead one still goes live.
  store.BulkMarkAlive({5, 20, ~uint64_t{0}});
  EXPECT_EQ(store.live_ids(), (std::vector<uint64_t>{10, 20, 30}));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.Get(5), nullptr);
  for (size_t i = 0; i < store.live_ids().size(); ++i) {
    EXPECT_EQ(&store.at_slot(store.live_slot(i)),
              store.Get(store.live_ids()[i]));
  }
}

TEST(NodeStore, ReserveDoesNotDisturbContents) {
  NodeStore<TestNode> store;
  store.Emplace(3, 30);
  store.MarkAlive(3);
  TestNode* before = store.Get(3);
  store.Reserve(5000);
  EXPECT_EQ(store.Get(3), before);
  EXPECT_EQ(store.live_ids(), (std::vector<uint64_t>{3}));
  for (uint64_t id = 0; id < 100; ++id) store.Emplace(1000 + id, 0);
  EXPECT_EQ(store.size(), 101u);
}

TEST(NodeStore, MemoryUsageAccountsSlabsIndexAndArena) {
  NodeStore<TestNode> store;
  StoreMemoryStats empty = store.MemoryUsage();
  EXPECT_EQ(empty.node_bytes, 0u);
  EXPECT_EQ(empty.bytes_per_node, 0.0);

  store.Reserve(10);
  for (uint64_t id = 0; id < 10; ++id) {
    auto [node, inserted] = store.Emplace(id, 0);
    (void)node;
    store.MarkAlive(id);
  }
  FlatList list;
  store.tables().Assign(list, {1, 2, 3, 4, 5});
  StoreMemoryStats s = store.MemoryUsage();
  EXPECT_EQ(s.node_bytes,
            NodeStore<TestNode>::kSlabNodes * sizeof(TestNode));
  // index_bytes is exact: every slot array was reserved for the 10 ids
  // (a liveness byte, a sorted live id, its slot and the slot's id), and
  // the index is the smallest power of two of 4-byte cells at load <= 1/2.
  EXPECT_EQ(s.index_bytes,
            10 * (sizeof(uint8_t) + sizeof(uint64_t) + sizeof(uint32_t) +
                  sizeof(uint64_t)) +
                32 * sizeof(uint32_t));
  EXPECT_EQ(s.table_bytes, store.tables().used_bytes());
  EXPECT_EQ(s.arena_bytes, store.tables().allocated_bytes());
  const double total = static_cast<double>(s.node_bytes + s.index_bytes +
                                           s.arena_bytes);
  EXPECT_DOUBLE_EQ(s.bytes_per_node, total / 10.0);
}

TEST(NodeStore, IndexAgreesWithReferenceUnderInterleavedOps) {
  using Store = NodeStore<TestNode>;
  // Ids whose hashes agree in their top 12 bits share one home cell at
  // every index size up to 2^12 cells, so inserting them builds one long
  // probe run. Found by brute force.
  auto home12 = [](uint64_t id) { return (id * Store::kIndexHashMul) >> 52; };
  const uint64_t anchor = uint64_t{1} << 20;
  std::vector<uint64_t> same_home;
  for (uint64_t id = anchor; same_home.size() < 48; ++id) {
    if (home12(id) == home12(anchor)) same_home.push_back(id);
  }
  std::vector<uint64_t> pool = {0, ~uint64_t{0}};
  // Equal low words, then a consecutive run.
  for (uint64_t k = 1; k <= 24; ++k) pool.push_back(k << 32);
  for (uint64_t i = 0; i < 40; ++i) pool.push_back(5000 + i);
  pool.insert(pool.end(), same_home.begin(), same_home.begin() + 40);
  // Never added: the last eight end their probe past the whole shared run.
  std::vector<uint64_t> absent = {1, ~uint64_t{0} - 1, uint64_t{25} << 32,
                                  5040};
  absent.insert(absent.end(), same_home.begin() + 40, same_home.end());

  auto outcome = proptest::RunProperty(18, 20, [&](proptest::Case& c)
                                                   -> std::string {
    struct Ref {
      uint32_t slot;
      const TestNode* node;
      int tag;
      bool alive;
    };
    std::map<uint64_t, Ref> ref;
    Store store;
    auto emplace = [&](uint64_t id, int tag) -> std::string {
      auto [node, inserted] = store.Emplace(id, tag);
      auto it = ref.find(id);
      if (it == ref.end()) {
        if (!inserted || node->tag != tag) return "new id not inserted";
        const auto slot = static_cast<uint32_t>(ref.size());
        ref.emplace(id, Ref{slot, node, tag, false});
      } else if (inserted || node != it->second.node) {
        return "existing id re-inserted";
      }
      return "";
    };
    auto check = [&]() -> std::string {
      if (store.size() != ref.size()) return "size mismatch";
      std::vector<uint64_t> live;
      for (uint64_t id : pool) {
        auto it = ref.find(id);
        if (it == ref.end()) {
          if (store.SlotOf(id) != Store::kNoSlot || store.Get(id) != nullptr ||
              store.IsAlive(id)) {
            return "unadded pool id " + std::to_string(id) + " found";
          }
          continue;
        }
        const Ref& r = it->second;
        if (store.SlotOf(id) != r.slot) return "slot of " + std::to_string(id);
        if (store.Get(id) != r.node || r.node->tag != r.tag) {
          return "record of " + std::to_string(id);
        }
        if (store.IsAlive(id) != r.alive) {
          return "liveness of " + std::to_string(id);
        }
        if (r.alive) live.push_back(id);
      }
      for (uint64_t id : absent) {
        if (store.SlotOf(id) != Store::kNoSlot || store.Get(id) != nullptr ||
            store.IsAlive(id)) {
          return "never-added id " + std::to_string(id) + " found";
        }
      }
      std::sort(live.begin(), live.end());
      if (store.live_ids() != live) return "live ids";
      return "";
    };

    constexpr int kSteps = 300;
    for (int step = 0; step < kSteps; ++step) {
      // The first half grows the index by Emplace alone (from 16 cells
      // through several doublings); Reserve joins in the second half.
      const bool may_reserve = step >= kSteps / 2;
      const uint64_t op = c.Range("op", 0, 5);
      const uint64_t id = pool[c.Range("id", 0, pool.size() - 1)];
      std::string err;
      if (op <= 1 || (op == 2 && !may_reserve)) {
        err = emplace(id, step);
      } else if (op == 2) {
        store.Reserve(store.size() + c.Range("extra", 0, 300));
      } else if (op == 3) {
        err = emplace(id, step);
        store.MarkAlive(id);
        ref[id].alive = true;
      } else if (op == 4) {
        if (auto it = ref.find(id); it != ref.end()) {
          store.MarkDead(id);
          it->second.alive = false;
        }
      } else {
        Store moved(std::move(store));
        if (store.size() != 0 || store.SlotOf(id) != Store::kNoSlot ||
            store.Get(id) != nullptr) {
          return "moved-from store still indexes ids";
        }
        if (c.Bool("assign_over_records")) {
          Store other;
          other.Emplace(absent[0], -1);
          other.MarkAlive(absent[0]);
          other = std::move(moved);
          store = std::move(other);
        } else {
          store = std::move(moved);
        }
      }
      if (err.empty()) err = check();
      if (!err.empty()) return "step " + std::to_string(step) + ": " + err;
    }
    return "";
  });
  EXPECT_TRUE(outcome.ok) << outcome.message << " [" << outcome.counterexample
                          << "]";
}

TEST(NodeStore, PointersStayValidAcrossGrowth) {
  NodeStore<TestNode> store;
  store.Emplace(0, 0);
  TestNode* first = store.Get(0);
  // Force many appends; a vector-backed store would reallocate and
  // invalidate `first`, the deque must not.
  for (uint64_t id = 1; id < 10000; ++id) {
    store.Emplace(id, static_cast<int>(id));
  }
  EXPECT_EQ(store.Get(0), first);
  EXPECT_EQ(first->tag, 0);
}

}  // namespace
}  // namespace peercache::overlay
