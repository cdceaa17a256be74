// The shared membership layer (overlay::OverlayBase) on every overlay: one
// typed suite runs each case on Chord, Pastry and Kademlia. It covers joins
// one at a time and in a batch, leaves with and without forgetting state
// (directly and through a LEAVE control frame), rejoins, auxiliary
// installation and the pruning of dead auxiliaries at stabilization.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "chord/chord_network.h"
#include "common/status.h"
#include "kademlia/kademlia_network.h"
#include "net/actor_node.h"
#include "net/wire.h"
#include "pastry/pastry_network.h"

namespace peercache {
namespace {

/// An empty overlay of geometry `Net` over a `bits`-bit id space.
template <typename Net>
Net MakeEmpty(int bits);

template <>
chord::ChordNetwork MakeEmpty(int bits) {
  chord::ChordParams params;
  params.bits = bits;
  return chord::ChordNetwork(params);
}

template <>
pastry::PastryNetwork MakeEmpty(int bits) {
  pastry::PastryParams params;
  params.bits = bits;
  return pastry::PastryNetwork(params, /*seed=*/1);
}

template <>
kademlia::KademliaNetwork MakeEmpty(int bits) {
  kademlia::KademliaParams params;
  params.bits = bits;
  return kademlia::KademliaNetwork(params);
}

template <typename Net>
class Membership : public ::testing::Test {
 protected:
  /// `ids` joined one at a time, then every node stabilized.
  static Net Build(int bits, const std::vector<uint64_t>& ids) {
    Net net = MakeEmpty<Net>(bits);
    for (uint64_t id : ids) EXPECT_TRUE(net.AddNode(id).ok()) << id;
    net.StabilizeAll();
    return net;
  }

  static std::vector<uint64_t> Aux(const Net& net, uint64_t id) {
    const auto aux = net.AuxiliarySpan(id);
    return {aux.begin(), aux.end()};
  }
};

using Overlays = ::testing::Types<chord::ChordNetwork, pastry::PastryNetwork,
                                  kademlia::KademliaNetwork>;
TYPED_TEST_SUITE(Membership, Overlays);

TYPED_TEST(Membership, AddRemoveRejoin) {
  TypeParam net = MakeEmpty<TypeParam>(10);
  ASSERT_TRUE(net.AddNode(5).ok());
  ASSERT_TRUE(net.AddNode(9).ok());
  EXPECT_TRUE(net.IsAlive(5));
  EXPECT_EQ(net.live_count(), 2u);
  EXPECT_EQ(net.AddNode(5).code(), StatusCode::kInvalidArgument)
      << "duplicate live id";
  EXPECT_EQ(net.AddNode(uint64_t{1} << 10).code(),
            StatusCode::kInvalidArgument)
      << "id out of range for the 10-bit space";
  EXPECT_EQ(net.RemoveNode(77).code(), StatusCode::kNotFound);

  ASSERT_TRUE(net.RemoveNode(5).ok());
  EXPECT_FALSE(net.IsAlive(5));
  EXPECT_EQ(net.live_count(), 1u);
  EXPECT_EQ(net.RemoveNode(5).code(), StatusCode::kNotFound)
      << "already dead";
  ASSERT_TRUE(net.RejoinNode(5).ok());
  EXPECT_TRUE(net.IsAlive(5));
  EXPECT_EQ(net.RejoinNode(5).code(), StatusCode::kFailedPrecondition)
      << "already alive";
  EXPECT_EQ(net.RejoinNode(1234).code(), StatusCode::kNotFound)
      << "never added";
}

TYPED_TEST(Membership, BulkAddRejectsAnIdGivenTwice) {
  TypeParam net = MakeEmpty<TypeParam>(10);
  EXPECT_EQ(net.BulkAdd({5, 9, 5}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(net.live_count(), 0u);
  EXPECT_EQ(net.GetNode(9), nullptr) << "rejected before any mutation";

  ASSERT_TRUE(net.BulkAdd({5, 9}).ok());
  EXPECT_EQ(net.live_count(), 2u);
  EXPECT_EQ(net.BulkAdd({3, 9}).code(), StatusCode::kInvalidArgument)
      << "live id";
  EXPECT_EQ(net.BulkAdd({3, uint64_t{1} << 10}).code(),
            StatusCode::kInvalidArgument)
      << "id out of range";
  EXPECT_EQ(net.GetNode(3), nullptr);
  EXPECT_EQ(net.live_count(), 2u);
}

TYPED_TEST(Membership, RejoinKeepsFrequenciesDropsAuxiliaries) {
  TypeParam net = TestFixture::Build(16, {100, 2000, 40000});
  net.GetNode(100)->frequencies.Record(2000);
  net.GetNode(100)->frequencies.Record(2000);
  ASSERT_TRUE(net.SetAuxiliaries(100, {2000}).ok());

  ASSERT_TRUE(net.RemoveNode(100).ok());
  ASSERT_TRUE(net.RejoinNode(100).ok());
  const auto* node = net.GetNode(100);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->frequencies.total(), 2u)
      << "history retained across restart (a DNS server keeps its stats)";
  EXPECT_EQ(node->frequencies.distinct(), 1u);
  EXPECT_TRUE(net.AuxiliarySpan(100).empty())
      << "auxiliaries are routing state and are lost on crash";
  EXPECT_TRUE(net.Auxiliaries(*node).empty());
}

TYPED_TEST(Membership, ForgetStateClearsEverything) {
  TypeParam net = TestFixture::Build(16, {100, 2000, 40000});
  net.GetNode(100)->frequencies.Record(2000);
  ASSERT_TRUE(net.SetAuxiliaries(100, {2000}).ok());
  ASSERT_FALSE(net.CoreNeighborIds(100).empty());

  ASSERT_TRUE(net.RemoveNode(100, /*forget_state=*/true).ok());
  EXPECT_EQ(net.GetNode(100)->frequencies.total(), 0u);
  EXPECT_TRUE(net.AuxiliarySpan(100).empty());
  EXPECT_TRUE(net.CoreNeighborIds(100).empty()) << "core tables released";

  ASSERT_TRUE(net.RejoinNode(100).ok());
  EXPECT_EQ(net.GetNode(100)->frequencies.total(), 0u);
  EXPECT_EQ(net.GetNode(100)->frequencies.distinct(), 0u);
  EXPECT_FALSE(net.CoreNeighborIds(100).empty()) << "rejoin rebuilds them";
}

TYPED_TEST(Membership, LeaveFrameForgetsStateOnlyWhenAsked) {
  TypeParam net = TestFixture::Build(16, {100, 2000, 40000});
  for (uint64_t id : {uint64_t{100}, uint64_t{2000}}) {
    net.GetNode(id)->frequencies.Record(40000);
    ASSERT_TRUE(net.SetAuxiliaries(id, {40000}).ok());
  }
  using Host = net::ActorHost<TypeParam>;
  ASSERT_TRUE(Host::ApplyControl(net, net::Leave{100, 0}).ok());
  ASSERT_TRUE(Host::ApplyControl(net, net::Leave{2000, 1}).ok());
  EXPECT_FALSE(net.IsAlive(100));
  EXPECT_FALSE(net.IsAlive(2000));

  EXPECT_EQ(net.GetNode(100)->frequencies.total(), 1u)
      << "a plain LEAVE keeps the history";
  EXPECT_EQ(TestFixture::Aux(net, 100), (std::vector<uint64_t>{40000}));
  EXPECT_EQ(net.GetNode(2000)->frequencies.total(), 0u)
      << "LEAVE with forget_state drops the history";
  EXPECT_TRUE(net.AuxiliarySpan(2000).empty());
}

TYPED_TEST(Membership, StabilizePrunesDeadAuxiliaries) {
  TypeParam net = TestFixture::Build(8, {1, 50, 100, 150, 200});
  ASSERT_TRUE(net.SetAuxiliaries(1, {100, 150}).ok());
  ASSERT_TRUE(net.RemoveNode(150).ok());
  ASSERT_TRUE(net.StabilizeNode(1).ok());
  EXPECT_EQ(TestFixture::Aux(net, 1), (std::vector<uint64_t>{100}));
  const auto* node = net.GetNode(1);
  ASSERT_NE(node, nullptr);
  const auto aux = net.Auxiliaries(*node);
  EXPECT_EQ(std::vector<uint64_t>(aux.begin(), aux.end()),
            (std::vector<uint64_t>{100}));
  EXPECT_EQ(net.SetAuxiliaries(150, {}).code(), StatusCode::kNotFound)
      << "cannot install auxiliaries on a dead node";
}

}  // namespace
}  // namespace peercache
