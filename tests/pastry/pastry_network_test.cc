#include "pastry/pastry_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/bits.h"
#include "common/random.h"

namespace peercache::pastry {
namespace {

PastryNetwork MakeNetwork(int bits, const std::vector<uint64_t>& ids,
                          uint64_t seed = 11) {
  PastryParams params;
  params.bits = bits;
  PastryNetwork net(params, seed);
  for (uint64_t id : ids) {
    EXPECT_TRUE(net.AddNode(id).ok());
  }
  net.StabilizeAll();
  return net;
}

TEST(PastryNetwork, ResponsibleNodeIsNumericallyClosest) {
  PastryNetwork net = MakeNetwork(8, {10, 100, 200});
  EXPECT_EQ(net.ResponsibleNode(10).value(), 10u);
  EXPECT_EQ(net.ResponsibleNode(54).value(), 10u);
  EXPECT_EQ(net.ResponsibleNode(56).value(), 100u);
  EXPECT_EQ(net.ResponsibleNode(220).value(), 200u);
  // 240 wraps: ring distance to 10 is 26, to 200 is 40 -> 10.
  EXPECT_EQ(net.ResponsibleNode(240).value(), 10u);
  EXPECT_EQ(net.ResponsibleNode(255).value(), 10u);
  // Exact midpoint 55: distances 45/45, lower id wins.
  EXPECT_EQ(net.ResponsibleNode(55).value(), 10u);
}

TEST(PastryNetwork, RoutingRowsShareExactPrefix) {
  Rng rng(9);
  auto ids = rng.SampleDistinct(uint64_t{1} << 12, 40);
  PastryNetwork net = MakeNetwork(12, ids);
  for (uint64_t id : ids) {
    const PastryNode* node = net.GetNode(id);
    const auto rows = net.RoutingRows(*node);
    for (int row = 0; row < 12; ++row) {
      uint64_t w = rows[static_cast<size_t>(row)];
      if (w == PastryNetwork::kNoEntry) continue;
      EXPECT_EQ(CommonPrefixLength(id, w, 12), row)
          << "row " << row << " of node " << id;
    }
  }
}

TEST(PastryNetwork, RowEntriesAreProximityClosest) {
  Rng rng(10);
  auto ids = rng.SampleDistinct(uint64_t{1} << 12, 60);
  PastryNetwork net = MakeNetwork(12, ids);
  // Re-derive the proximity-optimal entry for a few nodes/rows.
  for (size_t i = 0; i < 5; ++i) {
    uint64_t id = ids[i];
    const PastryNode* node = net.GetNode(id);
    const auto rows = net.RoutingRows(*node);
    for (int row = 0; row < 12; ++row) {
      uint64_t entry = rows[static_cast<size_t>(row)];
      double entry_dist = 0;
      if (entry != PastryNetwork::kNoEntry) {
        const Coord& a = *net.CoordOf(id);
        const Coord& b = *net.CoordOf(entry);
        entry_dist = (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y);
      }
      for (uint64_t w : ids) {
        if (w == id || CommonPrefixLength(id, w, 12) != row) continue;
        ASSERT_NE(entry, PastryNetwork::kNoEntry)
            << "row " << row << " should not be empty";
        const Coord& a = *net.CoordOf(id);
        const Coord& b = *net.CoordOf(w);
        double d = (a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y);
        EXPECT_GE(d + 1e-12, entry_dist) << "closer candidate missed";
      }
    }
  }
}

TEST(PastryNetwork, CoordinatesStayWithTheirIdAcrossChurn) {
  Rng rng(77);
  const auto ids = rng.SampleDistinct(uint64_t{1} << 12, 50);
  PastryNetwork net = MakeNetwork(12, ids);
  ASSERT_EQ(net.coords().size(), ids.size());
  std::map<uint64_t, std::pair<double, double>> first;
  for (uint64_t id : ids) {
    const Coord* c = net.CoordOf(id);
    ASSERT_NE(c, nullptr);
    first[id] = {c->x, c->y};
  }
  auto expect_unchanged = [&](const char* when) {
    for (uint64_t id : ids) {
      const Coord* c = net.CoordOf(id);
      ASSERT_NE(c, nullptr) << when;
      EXPECT_EQ(std::make_pair(c->x, c->y), first[id]) << when << " id " << id;
    }
  };

  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(net.RemoveNode(ids[i]).ok());
  }
  expect_unchanged("after RemoveNode");
  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(net.RejoinNode(ids[i]).ok());
  }
  expect_unchanged("after RejoinNode");

  // A departed id added again, one at a time or in bulk, keeps its
  // coordinates and appends none.
  for (size_t i = 1; i < ids.size(); i += 4) {
    ASSERT_TRUE(net.RemoveNode(ids[i]).ok());
    ASSERT_TRUE(net.AddNode(ids[i]).ok());
  }
  ASSERT_TRUE(net.RemoveNode(ids[2]).ok());
  ASSERT_TRUE(net.BulkAdd({ids[2]}).ok());
  EXPECT_EQ(net.coords().size(), ids.size());
  expect_unchanged("after AddNode of departed ids");

  // A new id appends exactly one; a live duplicate is refused and appends
  // none.
  uint64_t fresh = 0;
  while (first.count(fresh) != 0) ++fresh;
  ASSERT_TRUE(net.AddNode(fresh).ok());
  EXPECT_EQ(net.coords().size(), ids.size() + 1);
  EXPECT_FALSE(net.AddNode(fresh).ok());
  EXPECT_EQ(net.coords().size(), ids.size() + 1);
  expect_unchanged("after adding a new id");

  // One entry per slot: every id owns a distinct entry of the array, and
  // the entries are exactly the ids'.
  std::set<const Coord*> owned;
  for (uint64_t id : ids) owned.insert(net.CoordOf(id));
  owned.insert(net.CoordOf(fresh));
  EXPECT_EQ(owned.size(), net.coords().size());
  for (const Coord* c : owned) {
    EXPECT_GE(c, net.coords().data());
    EXPECT_LT(c, net.coords().data() + net.coords().size());
  }
  uint64_t never = fresh + 1;
  while (first.count(never) != 0) ++never;
  EXPECT_EQ(net.CoordOf(never), nullptr);
}

TEST(PastryNetwork, NeverAddedAuxiliaryRanksWithoutCoordinates) {
  // A stale plan believes every dead entry alive, including an auxiliary id
  // the network never held. Prefix routing must rank it without
  // coordinates (last on proximity) rather than read a missing record; the
  // kernel then finds it dead and routes around it.
  Rng rng(5);
  const auto ids = rng.SampleDistinct(uint64_t{1} << 16, 64);
  PastryNetwork net = MakeNetwork(16, ids);
  const uint64_t origin = ids[0];
  uint64_t key = origin ^ (uint64_t{1} << 15);
  while (std::find(ids.begin(), ids.end(), key) != ids.end()) ++key;
  const uint64_t ghost = key;  // matches the key on every bit
  ASSERT_TRUE(net.SetAuxiliaries(origin, {ghost}).ok());
  fault::FaultConfig config;
  config.stale_prob = 1.0;
  config.seed = 3;
  const fault::FaultPlan plan(config);
  overlay::RouteOptions options;
  options.faults = &plan;
  auto route = net.Lookup(origin, key, options);
  ASSERT_TRUE(route.ok());
  EXPECT_GE(route->stale_forwards, 1);
  EXPECT_TRUE(route->success);
  ASSERT_FALSE(route->dead_evictions.empty());
  EXPECT_EQ(route->dead_evictions.front(), std::make_pair(origin, ghost));
}

TEST(PastryNetwork, LookupAlwaysSucceedsWhenStable) {
  Rng rng(123);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 100);
  PastryNetwork net = MakeNetwork(16, ids);
  for (int t = 0; t < 500; ++t) {
    uint64_t key = rng.UniformU64(uint64_t{1} << 16);
    uint64_t origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    auto route = net.Lookup(origin, key);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(route->success) << "key " << key << " from " << origin;
    EXPECT_EQ(route->destination, net.ResponsibleNode(key).value());
  }
}

TEST(PastryNetwork, PrefixGrowsAlongRoute) {
  // The hop count is bounded by roughly one hop per fixed bit plus the
  // final leaf-set step.
  Rng rng(321);
  auto ids = rng.SampleDistinct(uint64_t{1} << 24, 200);
  PastryNetwork net = MakeNetwork(24, ids);
  for (int t = 0; t < 300; ++t) {
    uint64_t key = rng.UniformU64(uint64_t{1} << 24);
    uint64_t origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    auto route = net.Lookup(origin, key);
    ASSERT_TRUE(route.ok());
    EXPECT_LE(route->hops, 26);
  }
}

TEST(PastryNetwork, AuxiliaryPointerShortensRoute) {
  Rng rng(456);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 128);
  PastryNetwork net = MakeNetwork(16, ids);
  const uint64_t origin = ids[0];
  // Find a multi-hop destination, install it as auxiliary, re-route.
  for (uint64_t target : ids) {
    if (target == origin) continue;
    auto before = net.Lookup(origin, target);
    ASSERT_TRUE(before.ok());
    if (before->hops < 3) continue;
    ASSERT_TRUE(net.SetAuxiliaries(origin, {target}).ok());
    auto after = net.Lookup(origin, target);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after->success);
    EXPECT_EQ(after->hops, 1) << "direct pointer must make it one hop";
    return;
  }
  FAIL() << "no multi-hop destination found";
}

TEST(PastryNetwork, DeadEntriesSkippedAfterCrash) {
  Rng rng(789);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 60);
  PastryNetwork net = MakeNetwork(16, ids);
  // Crash some nodes without stabilizing survivors; lookups between
  // survivors must still terminate and deliver somewhere sensible.
  for (size_t i = 0; i < ids.size(); i += 4) {
    ASSERT_TRUE(net.RemoveNode(ids[i]).ok());
  }
  int delivered = 0;
  for (int t = 0; t < 200; ++t) {
    uint64_t key = rng.UniformU64(uint64_t{1} << 16);
    uint64_t origin;
    do {
      origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    } while (!net.IsAlive(origin));
    auto route = net.Lookup(origin, key);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(net.IsAlive(route->destination));
    delivered += route->success;
  }
  // Stale tables may misdeliver occasionally, but most should still land.
  EXPECT_GT(delivered, 150);
  // After stabilization everything recovers.
  net.StabilizeAll();
  for (int t = 0; t < 200; ++t) {
    uint64_t key = rng.UniformU64(uint64_t{1} << 16);
    uint64_t origin;
    do {
      origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    } while (!net.IsAlive(origin));
    EXPECT_TRUE(net.Lookup(origin, key)->success);
  }
}

TEST(PastryNetwork, TinyOverlays) {
  PastryNetwork net = MakeNetwork(8, {42});
  auto route = net.Lookup(42, 7);
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route->success);
  EXPECT_EQ(route->hops, 0);
  EXPECT_EQ(route->destination, 42u);

  PastryNetwork net2 = MakeNetwork(8, {42, 100});
  auto route2 = net2.Lookup(42, 101);
  ASSERT_TRUE(route2.ok());
  EXPECT_TRUE(route2->success);
  EXPECT_EQ(route2->destination, 100u);
}

TEST(PastryNetwork, CoreNeighborIdsIncludeRowsAndLeafSet) {
  Rng rng(31);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 50);
  PastryNetwork net = MakeNetwork(16, ids);
  auto cores = net.CoreNeighborIds(ids[0]);
  const PastryNode* node = net.GetNode(ids[0]);
  for (uint64_t w : net.LeafSucc(*node)) {
    EXPECT_TRUE(std::find(cores.begin(), cores.end(), w) != cores.end());
  }
  for (uint64_t w : net.LeafPred(*node)) {
    EXPECT_TRUE(std::find(cores.begin(), cores.end(), w) != cores.end());
  }
  for (uint64_t w : net.RoutingRows(*node)) {
    if (w == PastryNetwork::kNoEntry) continue;
    EXPECT_TRUE(std::find(cores.begin(), cores.end(), w) != cores.end());
  }
  std::set<uint64_t> dedup(cores.begin(), cores.end());
  EXPECT_EQ(dedup.size(), cores.size());
}

}  // namespace
}  // namespace peercache::pastry
