// Failure-injection tests: the Chord overlay under adversarial membership
// changes and partial stabilization. What a leave keeps or forgets is
// tested for every overlay in tests/overlay/membership_test.cc.

#include <gtest/gtest.h>

#include <algorithm>

#include "chord/chord_network.h"
#include "common/random.h"

namespace peercache::chord {
namespace {

TEST(ChordChurn, FlappingNodeNeverCorruptsRouting) {
  Rng rng(1111);
  ChordParams params;
  params.bits = 16;
  ChordNetwork net(params);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 40);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  // One node flaps rapidly while others route around it.
  const uint64_t flapper = ids[7];
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(net.RemoveNode(flapper).ok());
    for (int t = 0; t < 10; ++t) {
      uint64_t origin;
      do {
        origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
      } while (!net.IsAlive(origin));
      auto route = net.Lookup(origin, rng.UniformU64(uint64_t{1} << 16));
      ASSERT_TRUE(route.ok());
      EXPECT_TRUE(net.IsAlive(route->destination));
    }
    ASSERT_TRUE(net.RejoinNode(flapper).ok());
  }
  net.StabilizeAll();
  for (int t = 0; t < 100; ++t) {
    uint64_t key = rng.UniformU64(uint64_t{1} << 16);
    auto route = net.Lookup(ids[0], key);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(route->success);
  }
}

TEST(ChordChurn, PartialStabilizationStillRoutes) {
  // Only half the survivors stabilize after a crash wave; lookups must
  // still terminate and mostly succeed (others route around dead entries).
  Rng rng(2222);
  ChordParams params;
  params.bits = 16;
  ChordNetwork net(params);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 100);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  for (size_t i = 0; i < ids.size(); i += 5) {
    ASSERT_TRUE(net.RemoveNode(ids[i]).ok());
  }
  int stabilized = 0;
  for (uint64_t id : net.LiveNodeIds()) {
    if (++stabilized % 2 == 0) {
      ASSERT_TRUE(net.StabilizeNode(id).ok());
    }
  }
  int successes = 0;
  const int kTrials = 400;
  for (int t = 0; t < kTrials; ++t) {
    uint64_t origin;
    do {
      origin = ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    } while (!net.IsAlive(origin));
    auto route = net.Lookup(origin, rng.UniformU64(uint64_t{1} << 16));
    ASSERT_TRUE(route.ok());
    successes += route->success;
  }
  EXPECT_GT(successes, kTrials * 8 / 10);
}

TEST(ChordChurn, JoinVisibleOnlyAfterOthersStabilize) {
  ChordParams params;
  params.bits = 16;
  ChordNetwork net(params);
  ASSERT_TRUE(net.AddNode(1000).ok());
  ASSERT_TRUE(net.AddNode(30000).ok());
  net.StabilizeAll();
  // A node joins between them; 1000's tables don't know it yet.
  ASSERT_TRUE(net.AddNode(20000).ok());
  auto route = net.Lookup(1000, 20005);
  ASSERT_TRUE(route.ok());
  // Ground truth says the new node owns key 20005; stale tables at 1000 may
  // or may not reach it, but after stabilization they must.
  net.StabilizeAll();
  route = net.Lookup(1000, 20005);
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route->success);
  EXPECT_EQ(route->destination, 20000u);
}

TEST(ChordChurn, NeverRemoveBelowTwoNodesGuardIsCallersJob) {
  // The network itself allows removing down to one node; routing from the
  // lone survivor must still terminate.
  ChordParams params;
  params.bits = 8;
  ChordNetwork net(params);
  ASSERT_TRUE(net.AddNode(1).ok());
  ASSERT_TRUE(net.AddNode(128).ok());
  ASSERT_TRUE(net.RemoveNode(128).ok());
  auto route = net.Lookup(1, 200);
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route->success);
  EXPECT_EQ(route->destination, 1u);
  EXPECT_EQ(route->hops, 0);
}

}  // namespace
}  // namespace peercache::chord
