#include "chord/chord_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bits.h"
#include "common/random.h"

namespace peercache::chord {
namespace {

ChordNetwork MakeNetwork(int bits, const std::vector<uint64_t>& ids) {
  ChordParams params;
  params.bits = bits;
  ChordNetwork net(params);
  for (uint64_t id : ids) {
    EXPECT_TRUE(net.AddNode(id).ok());
  }
  net.StabilizeAll();
  return net;
}

TEST(ChordNetwork, ResponsibleNodeIsPredecessor) {
  ChordNetwork net = MakeNetwork(8, {10, 100, 200});
  // Paper variant: a key belongs to the last node at-or-before it.
  EXPECT_EQ(net.ResponsibleNode(10).value(), 10u);
  EXPECT_EQ(net.ResponsibleNode(11).value(), 10u);
  EXPECT_EQ(net.ResponsibleNode(99).value(), 10u);
  EXPECT_EQ(net.ResponsibleNode(100).value(), 100u);
  EXPECT_EQ(net.ResponsibleNode(255).value(), 200u);
  EXPECT_EQ(net.ResponsibleNode(5).value(), 200u) << "wraps to the largest id";
}

TEST(ChordNetwork, FingersMatchPaperVariant) {
  ChordNetwork net = MakeNetwork(8, {0, 3, 5, 9, 17, 33, 65, 129});
  const ChordNode* zero = net.GetNode(0);
  ASSERT_NE(zero, nullptr);
  // Finger i = smallest node in (2^i, 2^{i+1}]: i=0 -> (1,2]: none;
  // i=1 -> (2,4]: 3; i=2 -> (4,8]: 5; i=3 -> (8,16]: 9; i=4 -> (16,32]: 17;
  // i=5 -> (32,64]: 33; i=6 -> (64,128]: 65; i=7 -> (128,256]: 129.
  const auto finger_span = net.Fingers(*zero);
  std::set<uint64_t> fingers(finger_span.begin(), finger_span.end());
  EXPECT_EQ(fingers, (std::set<uint64_t>{3, 5, 9, 17, 33, 65, 129}));
}

TEST(ChordNetwork, LookupAlwaysSucceedsWhenStable) {
  Rng rng(123);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 100);
  ChordParams params;
  params.bits = 16;
  ChordNetwork net(params);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  for (int t = 0; t < 500; ++t) {
    uint64_t key = rng.UniformU64(uint64_t{1} << 16);
    uint64_t origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    auto route = net.Lookup(origin, key);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(route->success) << "key " << key << " from " << origin;
    EXPECT_EQ(route->destination, net.ResponsibleNode(key).value());
  }
}

TEST(ChordNetwork, LookupHopsBoundedByBits) {
  Rng rng(77);
  auto ids = rng.SampleDistinct(uint64_t{1} << 20, 256);
  ChordParams params;
  params.bits = 20;
  ChordNetwork net(params);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  for (int t = 0; t < 500; ++t) {
    uint64_t key = rng.UniformU64(uint64_t{1} << 20);
    uint64_t origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    auto route = net.Lookup(origin, key);
    ASSERT_TRUE(route.ok());
    EXPECT_LE(route->hops, 20) << "steady-state bound of log-ish hops";
  }
}

TEST(ChordNetwork, AuxiliaryPointerShortensRoute) {
  // Ring 0,1,2,4,8,...: routing from 0 to far targets takes several hops;
  // an auxiliary pointer directly at the target makes it one hop.
  std::vector<uint64_t> ids;
  for (int i = 0; i <= 7; ++i) ids.push_back(uint64_t{1} << i);
  ids.push_back(0);
  ChordNetwork net = MakeNetwork(8, ids);
  const uint64_t target = 129;  // owned by 128's... 128 is the predecessor
  auto before = net.Lookup(0, target);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->success);
  ASSERT_TRUE(net.SetAuxiliaries(0, {128}).ok());
  auto after = net.Lookup(0, target);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->success);
  EXPECT_LE(after->hops, before->hops);
  EXPECT_EQ(after->hops, 1);
}

TEST(ChordNetwork, AuxiliariesHelpOnAggregate) {
  // Adding entries helps on aggregate under the unchanged greedy policy
  // (individual lookups may occasionally lengthen: a longer first jump can
  // land at a node with worse onward fingers).
  Rng rng(5150);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 64);
  ChordParams params;
  params.bits = 16;
  ChordNetwork net(params);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  const uint64_t origin = ids[0];
  std::vector<uint64_t> keys;
  int64_t before = 0;
  for (int t = 0; t < 200; ++t) {
    keys.push_back(rng.UniformU64(uint64_t{1} << 16));
    before += net.Lookup(origin, keys.back())->hops;
  }
  // Install random auxiliaries at the origin.
  std::vector<uint64_t> aux(ids.begin() + 1, ids.begin() + 9);
  ASSERT_TRUE(net.SetAuxiliaries(origin, aux).ok());
  int64_t after = 0;
  for (uint64_t key : keys) {
    auto route = net.Lookup(origin, key);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(route->success);
    after += route->hops;
  }
  EXPECT_LE(after, before);
}

TEST(ChordNetwork, RoutingSkipsDeadEntriesAfterCrash) {
  ChordNetwork net = MakeNetwork(8, {0, 64, 128, 192, 200, 210});
  // Crash a node without stabilizing anyone: others' tables are stale.
  ASSERT_TRUE(net.RemoveNode(192).ok());
  auto route = net.Lookup(0, 201);
  ASSERT_TRUE(route.ok());
  // 200 is the live predecessor of 201.
  EXPECT_TRUE(route->success);
  EXPECT_EQ(route->destination, 200u);
}

TEST(ChordNetwork, ChurnedLookupsRecoverAfterStabilization) {
  Rng rng(864);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 80);
  ChordParams params;
  params.bits = 16;
  ChordNetwork net(params);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  // Crash a third of the overlay.
  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(net.RemoveNode(ids[i]).ok());
  }
  net.StabilizeAll();
  int successes = 0;
  const int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    uint64_t key = rng.UniformU64(uint64_t{1} << 16);
    uint64_t origin;
    do {
      origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    } while (!net.IsAlive(origin));
    auto route = net.Lookup(origin, key);
    ASSERT_TRUE(route.ok());
    successes += route->success;
  }
  EXPECT_EQ(successes, kTrials) << "post-stabilization lookups must succeed";
}

TEST(ChordNetwork, CoreNeighborIdsDeduplicated) {
  ChordNetwork net = MakeNetwork(8, {0, 2, 3, 4, 5});
  auto cores = net.CoreNeighborIds(0);
  std::set<uint64_t> dedup(cores.begin(), cores.end());
  EXPECT_EQ(dedup.size(), cores.size());
  EXPECT_TRUE(std::is_sorted(cores.begin(), cores.end()));
  EXPECT_FALSE(cores.empty());
}

}  // namespace
}  // namespace peercache::chord
