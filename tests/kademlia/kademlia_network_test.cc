// Unit tests for the Kademlia overlay simulator: XOR-minimizer key
// ownership (cross-checked against brute force — the responsible node is
// NOT a numeric neighbor), bucket structure and bucket_size truncation,
// exact greedy routing on fresh tables (including the truncation-safety
// theorem at bucket_size = 1), stale-table degradation, auxiliary
// shortcuts and hop-kind accounting, and the trace contract. Membership is
// tested once for every overlay in tests/overlay/membership_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bits.h"
#include "common/random.h"
#include "common/route_result.h"
#include "common/status.h"
#include "common/trace.h"
#include "kademlia/kademlia_network.h"

namespace peercache::kademlia {
namespace {

KademliaParams SmallParams(int bits = 10) {
  KademliaParams params;
  params.bits = bits;
  return params;
}

/// Brute-force ground truth: the live id minimizing id XOR key.
uint64_t XorClosest(const std::vector<uint64_t>& live, uint64_t key) {
  uint64_t best = live.front();
  for (uint64_t id : live) {
    if ((id ^ key) < (best ^ key)) best = id;
  }
  return best;
}

TEST(KademliaNetwork, ResponsibleNodeMatchesBruteForce) {
  Rng rng(0x4ad901);
  for (int trial = 0; trial < 20; ++trial) {
    KademliaNetwork net(SmallParams(12));
    auto ids = rng.SampleDistinct(uint64_t{1} << 12, 40);
    for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
    const std::vector<uint64_t> live = net.LiveNodeIds();
    for (int q = 0; q < 50; ++q) {
      const uint64_t key = rng.UniformU64(uint64_t{1} << 12);
      auto got = net.ResponsibleNode(key);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), XorClosest(live, key)) << "key " << key;
    }
  }
}

TEST(KademliaNetwork, ResponsibleNodeIsNotANumericNeighbor) {
  // key = 8, nodes {1, 7}: numerically 7 is adjacent to 8, but
  // 8 XOR 7 = 15 while 8 XOR 1 = 9, so the XOR owner is 1. Any
  // ring-distance shortcut in ResponsibleNode would get this wrong.
  KademliaNetwork net(SmallParams(4));
  ASSERT_TRUE(net.AddNode(1).ok());
  ASSERT_TRUE(net.AddNode(7).ok());
  auto got = net.ResponsibleNode(8);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 1u);
}

TEST(KademliaNetwork, ResponsibleNodeFailsOnEmptyOverlay) {
  KademliaNetwork net(SmallParams());
  EXPECT_FALSE(net.ResponsibleNode(3).ok());
}

TEST(KademliaNetwork, BucketsHoldTheRightPrefixClasses) {
  Rng rng(0x4ad902);
  KademliaNetwork net(SmallParams(10));
  auto ids = rng.SampleDistinct(uint64_t{1} << 10, 60);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  for (uint64_t id : net.LiveNodeIds()) {
    const KademliaNode* node = net.GetNode(id);
    ASSERT_NE(node, nullptr);
    for (size_t i = 0; i < net.BucketCount(*node); ++i) {
      const auto bucket = net.Bucket(*node, i);
      EXPECT_LE(bucket.size(), 8u);  // default bucket_size
      EXPECT_TRUE(std::is_sorted(bucket.begin(), bucket.end()));
      for (uint64_t w : bucket) {
        EXPECT_EQ(static_cast<size_t>(CommonPrefixLength(id, w, 10)), i)
            << "node " << id << " bucket " << i << " entry " << w;
      }
    }
  }
}

TEST(KademliaNetwork, TruncationKeepsTheXorClosestPerBucket) {
  KademliaParams params = SmallParams(6);
  params.bucket_size = 2;
  KademliaNetwork net(params);
  // Node 0's bucket 0 (ids with the top bit set, cpl 0): all of 32..39.
  // Only the two XOR-closest to 0 — i.e. numerically smallest here — stay.
  ASSERT_TRUE(net.AddNode(0).ok());
  for (uint64_t id = 32; id < 40; ++id) ASSERT_TRUE(net.AddNode(id).ok());
  ASSERT_TRUE(net.StabilizeNode(0).ok());
  const KademliaNode* node = net.GetNode(0);
  ASSERT_NE(node, nullptr);
  ASSERT_GT(net.BucketCount(*node), 0u);
  const auto bucket0 = net.Bucket(*node, 0);
  EXPECT_EQ(std::vector<uint64_t>(bucket0.begin(), bucket0.end()),
            (std::vector<uint64_t>{32, 33}));
}

TEST(KademliaNetwork, StableLookupsAreExact) {
  Rng rng(0x4ad903);
  KademliaNetwork net(SmallParams(12));
  auto ids = rng.SampleDistinct(uint64_t{1} << 12, 80);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  for (int q = 0; q < 200; ++q) {
    const uint64_t origin =
        ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    const uint64_t key = rng.UniformU64(uint64_t{1} << 12);
    auto route = net.Lookup(origin, key);
    ASSERT_TRUE(route.ok()) << route.status();
    EXPECT_TRUE(route->success);
    auto truth = net.ResponsibleNode(key);
    ASSERT_TRUE(truth.ok());
    EXPECT_EQ(route->destination, truth.value());
  }
}

TEST(KademliaNetwork, TruncatedBucketsStillRouteExactly) {
  // The truncation-safety theorem: bucket capacity 1 throws away almost
  // every entry, yet greedy XOR descent still reaches the global minimizer
  // because no useful distance class ever empties.
  Rng rng(0x4ad904);
  KademliaParams params = SmallParams(12);
  params.bucket_size = 1;
  KademliaNetwork net(params);
  auto ids = rng.SampleDistinct(uint64_t{1} << 12, 100);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  for (int q = 0; q < 200; ++q) {
    const uint64_t origin =
        ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    const uint64_t key = rng.UniformU64(uint64_t{1} << 12);
    auto route = net.Lookup(origin, key);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(route->success) << "origin " << origin << " key " << key;
  }
}

TEST(KademliaNetwork, TraceRecordsStrictXorDescent) {
  Rng rng(0x4ad905);
  KademliaNetwork net(SmallParams(12));
  auto ids = rng.SampleDistinct(uint64_t{1} << 12, 60);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  for (int q = 0; q < 50; ++q) {
    const uint64_t origin =
        ids[static_cast<size_t>(rng.UniformU64(ids.size()))];
    const uint64_t key = rng.UniformU64(uint64_t{1} << 12);
    RouteTrace trace;
    auto route = net.Lookup(origin, key, {.trace = &trace});
    ASSERT_TRUE(route.ok());
    EXPECT_EQ(trace.origin, origin);
    EXPECT_EQ(trace.key, key);
    EXPECT_EQ(trace.hops, route->hops);
    uint64_t pos = origin;
    for (const HopRecord& r : trace.path) {
      EXPECT_EQ(r.from, pos);
      EXPECT_LT(r.to ^ key, r.from ^ key) << "hop must shrink XOR distance";
      EXPECT_EQ(r.remaining, r.to ^ key);
      EXPECT_EQ(r.kind, HopEntryKind::kBucket) << "no auxiliaries installed";
      pos = r.to;
    }
    EXPECT_EQ(pos, route->destination);
  }
}

TEST(KademliaNetwork, AuxiliaryShortcutIsUsedAndCounted) {
  // bucket_size = 1 makes node 0's bucket 0 retain only 0x800 (XOR-closest
  // to 0), so an auxiliary pointing at 0x900 is strictly better for keys
  // near 0x900 and must win the greedy min as an auxiliary hop.
  KademliaParams params = SmallParams(12);
  params.bucket_size = 1;
  KademliaNetwork net(params);
  ASSERT_TRUE(net.AddNode(0).ok());
  ASSERT_TRUE(net.AddNode(0x800).ok());
  ASSERT_TRUE(net.AddNode(0x900).ok());
  net.StabilizeAll();
  ASSERT_TRUE(net.SetAuxiliaries(0, {0x900}).ok());
  RouteTrace trace;
  auto route = net.Lookup(0, 0x901, {.trace = &trace});
  ASSERT_TRUE(route.ok());
  EXPECT_TRUE(route->success);
  EXPECT_EQ(route->destination, 0x900u);
  EXPECT_EQ(route->hops, 1);
  EXPECT_EQ(route->aux_hops, 1);
  ASSERT_EQ(trace.path.size(), 1u);
  EXPECT_EQ(trace.path[0].kind, HopEntryKind::kAuxiliary);
}

TEST(KademliaNetwork, StaleTablesSkipDeadEntriesAtUseTime) {
  Rng rng(0x4ad906);
  KademliaNetwork net(SmallParams(12));
  auto ids = rng.SampleDistinct(uint64_t{1} << 12, 60);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  // Crash a third of the overlay with NO re-stabilization: survivors'
  // buckets still name the dead, but ping-before-forward skips them.
  std::vector<uint64_t> live;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(net.RemoveNode(ids[i]).ok());
    } else {
      live.push_back(ids[i]);
    }
  }
  for (int q = 0; q < 100; ++q) {
    const uint64_t origin =
        live[static_cast<size_t>(rng.UniformU64(live.size()))];
    const uint64_t key = rng.UniformU64(uint64_t{1} << 12);
    auto route = net.Lookup(origin, key);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(net.IsAlive(route->destination))
        << "a lookup must never end at a dead node";
  }
}

TEST(KademliaNetwork, CoreNeighborIdsAreSortedAndDeduplicated) {
  Rng rng(0x4ad907);
  KademliaNetwork net(SmallParams(10));
  auto ids = rng.SampleDistinct(uint64_t{1} << 10, 30);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  const uint64_t self = ids[0];
  std::vector<uint64_t> cores = net.CoreNeighborIds(self);
  EXPECT_FALSE(cores.empty());
  EXPECT_TRUE(std::is_sorted(cores.begin(), cores.end()));
  EXPECT_TRUE(std::adjacent_find(cores.begin(), cores.end()) == cores.end());
  EXPECT_TRUE(std::find(cores.begin(), cores.end(), self) == cores.end());
  EXPECT_TRUE(net.CoreNeighborIds(9999).empty()) << "unknown node";
}

TEST(KademliaNetwork, LookupFromDeadOriginFails) {
  KademliaNetwork net(SmallParams(8));
  ASSERT_TRUE(net.AddNode(1).ok());
  ASSERT_TRUE(net.AddNode(2).ok());
  ASSERT_TRUE(net.RemoveNode(2).ok());
  EXPECT_EQ(net.Lookup(2, 5).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(net.Lookup(42, 5).status().code(), StatusCode::kUnavailable);
}

TEST(KademliaNetwork, SingleNodeAnswersEverythingItself) {
  KademliaNetwork net(SmallParams(8));
  ASSERT_TRUE(net.AddNode(7).ok());
  for (uint64_t key : {uint64_t{0}, uint64_t{7}, uint64_t{255}}) {
    auto route = net.Lookup(7, key);
    ASSERT_TRUE(route.ok());
    EXPECT_TRUE(route->success);
    EXPECT_EQ(route->destination, 7u);
    EXPECT_EQ(route->hops, 0);
  }
}

TEST(KademliaNetwork, HopBudgetCapsTheRoute) {
  KademliaParams params = SmallParams(8);
  params.max_route_hops = 0;  // any forward at all overruns the budget
  KademliaNetwork net(params);
  ASSERT_TRUE(net.AddNode(0).ok());
  ASSERT_TRUE(net.AddNode(255).ok());
  net.StabilizeAll();
  auto route = net.Lookup(0, 255);
  ASSERT_TRUE(route.ok());
  EXPECT_FALSE(route->success);
  EXPECT_EQ(route->hops, 0);
}

}  // namespace
}  // namespace peercache::kademlia
