// The actor boundary against misaddressed and hostile lookup frames: a
// CRC-valid REQ or STEP that names a node the route cannot stand at, a
// routing policy the host does not run, or counters no live route can
// carry is answered with a kProtocolError DONE to the client and never
// reaches the routing kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "chord/chord_network.h"
#include "common/fault.h"
#include "net/actor_node.h"
#include "net/bus.h"
#include "net/wire.h"

namespace peercache::net {
namespace {

using Host = ActorHost<chord::ChordNetwork>;

constexpr uint64_t kLookupId = 7;

chord::ChordNetwork SmallRing() {
  chord::ChordParams params;
  params.bits = 16;
  chord::ChordNetwork net(params);
  EXPECT_TRUE(net.BulkAdd({100, 200, 300, 400}).ok());
  net.StabilizeAll();
  return net;
}

/// A STEP standing at `at` for key 350 (owned by 300), as a live route
/// from origin 100 would carry it.
LookupStep StepAt(uint64_t at) {
  LookupStep step;
  step.lookup_id = kLookupId;
  step.origin = 100;
  step.cursor.current = at;
  step.cursor.key = 350;
  step.cursor.truth = 300;
  step.cursor.hops_taken = 1;
  step.cursor.spent = 1;
  step.route.path = {100};
  step.route.hops = 1;
  return step;
}

std::vector<Outbound> Deliver(const Host& host, uint64_t dst,
                              std::vector<uint8_t> frame) {
  Envelope env;
  env.src = kClientAddress;
  env.dst = dst;
  env.payload = std::move(frame);
  std::vector<Outbound> out;
  host.HandleMessage(env, out);
  return out;
}

/// The single reply `out` holds, which must be a DONE to the client.
LookupDone OnlyDone(const std::vector<Outbound>& out) {
  EXPECT_EQ(out.size(), 1u);
  if (out.size() != 1) return {};
  EXPECT_EQ(out[0].dst, kClientAddress);
  auto decoded = Decode(std::span<const uint8_t>(out[0].payload));
  EXPECT_TRUE(decoded.ok());
  if (!decoded.ok()) return {};
  const auto* done = std::get_if<LookupDone>(&decoded.value());
  EXPECT_NE(done, nullptr);
  return done == nullptr ? LookupDone{} : *done;
}

void ExpectProtocolError(const std::vector<Outbound>& out) {
  const LookupDone done = OnlyDone(out);
  EXPECT_EQ(done.lookup_id, kLookupId);
  EXPECT_EQ(done.status,
            static_cast<uint8_t>(LookupWireStatus::kProtocolError));
}

TEST(ActorProtocolTest, StepAtUnknownNodeIsProtocolError) {
  const chord::ChordNetwork net = SmallRing();
  const Host host(net, Host::Config{});
  // Cursor and envelope agree on an id the overlay never held.
  ExpectProtocolError(Deliver(host, 999, Encode(StepAt(999))));
}

TEST(ActorProtocolTest, ResilientStepWithoutFaultPlanIsProtocolError) {
  const chord::ChordNetwork net = SmallRing();
  const Host host(net, Host::Config{});
  LookupStep step = StepAt(200);
  step.resilient = true;
  ExpectProtocolError(Deliver(host, 200, Encode(step)));
}

TEST(ActorProtocolTest, PlainStepOnFaultedHostIsProtocolError) {
  const chord::ChordNetwork net = SmallRing();
  fault::FaultConfig config;
  config.drop_prob = 0.1;
  config.seed = 5;
  const fault::FaultPlan plan(config);
  Host::Config host_config;
  host_config.faults = &plan;
  const Host host(net, host_config);
  ExpectProtocolError(Deliver(host, 200, Encode(StepAt(200))));
  // The same cursor under the host's own policy is visited.
  LookupStep step = StepAt(200);
  step.resilient = true;
  const std::vector<Outbound> out = Deliver(host, 200, Encode(step));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].dst, kClientAddress) << "a live route moves on";
}

TEST(ActorProtocolTest, StepAtCrashedNodeIsProtocolError) {
  chord::ChordNetwork net = SmallRing();
  const Host host(net, Host::Config{});
  // While 200 is alive the frame is an ordinary hop: 200 forwards to 300.
  std::vector<Outbound> out = Deliver(host, 200, Encode(StepAt(200)));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, 300u);
  ASSERT_TRUE(net.RemoveNode(200).ok());
  ExpectProtocolError(Deliver(host, 200, Encode(StepAt(200))));
}

TEST(ActorProtocolTest, StepWithCounterPastHopBudgetIsProtocolError) {
  const chord::ChordNetwork net = SmallRing();
  const Host host(net, Host::Config{});
  // The most a live route can have spent is the budget plus one forward.
  LookupStep step = StepAt(200);
  step.cursor.spent = net.params().max_route_hops + 1;
  ASSERT_EQ(OnlyDone(Deliver(host, 200, Encode(step))).status,
            static_cast<uint8_t>(LookupWireStatus::kOk));
  step = StepAt(200);
  step.cursor.hops_taken = 0x7fffffff;  // would overflow on the next hop
  ExpectProtocolError(Deliver(host, 200, Encode(step)));
  step = StepAt(200);
  step.route.aux_hops = 0x7fffffff;
  ExpectProtocolError(Deliver(host, 200, Encode(step)));
}

// A u32 counter of 2^31 or more decodes negative, below anything a live
// route can carry.
TEST(ActorProtocolTest, StepWithCounterPastInt32IsProtocolError) {
  const chord::ChordNetwork net = SmallRing();
  const Host host(net, Host::Config{});
  LookupStep step = StepAt(200);
  step.cursor.attempt = -1;  // 0xFFFFFFFF on the wire
  ExpectProtocolError(Deliver(host, 200, Encode(step)));
  step = StepAt(200);
  step.route.stale_forwards = -1;
  ExpectProtocolError(Deliver(host, 200, Encode(step)));
}

TEST(ActorProtocolTest, StepAwayFromEnvelopeDestinationIsProtocolError) {
  const chord::ChordNetwork net = SmallRing();
  const Host host(net, Host::Config{});
  ExpectProtocolError(Deliver(host, 300, Encode(StepAt(200))));
}

TEST(ActorProtocolTest, ReqAwayFromEnvelopeDestinationIsProtocolError) {
  const chord::ChordNetwork net = SmallRing();
  const Host host(net, Host::Config{});
  ExpectProtocolError(
      Deliver(host, 300, host.MakeLookupReq(kLookupId, 200, 350)));
}

}  // namespace
}  // namespace peercache::net
