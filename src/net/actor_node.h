#ifndef PEERCACHE_NET_ACTOR_NODE_H_
#define PEERCACHE_NET_ACTOR_NODE_H_

#include <cstdint>
#include <vector>

#include "common/fault.h"
#include "common/latency.h"
#include "common/route_kernel.h"
#include "common/status.h"
#include "common/trace.h"
#include "net/bus.h"
#include "net/wire.h"

namespace peercache::net {

/// Turns an overlay backend into a set of message-driven actors: every node
/// of `Net` is one bus mailbox, and a lookup is a chain of wire messages
/// instead of one LookupInto call. Each message is one
/// overlay::RouteKernel visit — the kernel LookupInto runs — and the actor
/// only suspends the route at hop boundaries into a LOOKUP_STEP message and
/// resumes it at the next node, so the message path is byte-for-byte the
/// direct path by construction (smoke-checked by
/// tests/net/actor_differential_test.cc).
///
/// Concurrency contract: HandleMessage is const and touches only const
/// views of the overlay, so the bus may dispatch distinct mailboxes on
/// different threads. Control messages (JOIN / LEAVE / STABILIZE) mutate the
/// overlay and must be applied serially through ApplyControl between bus
/// runs — exactly the "stop-the-world maintenance round" the simulator's
/// churn experiments already model.
template <typename Net>
class ActorHost {
 public:
  struct Config {
    /// Carry per-hop trace records in STEP/DONE messages.
    bool traced = false;
    const fault::FaultPlan* faults = nullptr;
    const latency::LatencyModel* latency = nullptr;
  };

  ActorHost(const Net& net, const Config& config)
      : net_(&net), config_(config) {}

  /// Bus handler for the lookup data plane. Decodes the envelope, performs
  /// one node visit, and emits the follow-up STEP (to the next hop) or DONE
  /// (to the client). A REQ whose origin is not the envelope's destination,
  /// or a STEP whose cursor does not stand at the destination, names a dead
  /// or unknown node, carries a resilient flag that disagrees with this
  /// host's fault plan, or carries a counter outside [0, max_route_hops +
  /// 1] yields a DONE with kProtocolError; an undecodable frame is dropped.
  /// Each outbound message's delay is the latency the visit accrued, which
  /// makes the LatencyModel the bus's delivery clock.
  void HandleMessage(const Envelope& env, std::vector<Outbound>& out) const;

  /// Builds the framed LOOKUP_REQ a client posts to `origin`'s mailbox.
  std::vector<uint8_t> MakeLookupReq(uint64_t lookup_id, uint64_t origin,
                                     uint64_t key) const;

  /// Applies one control-plane message to the overlay (serial only).
  /// JOIN rejoins a known crashed node and adds an unknown one; LEAVE
  /// crashes, forgetting the node's state when `forget_state` is set;
  /// STABILIZE targets one node or, with kAllNodes, every live node.
  static Status ApplyControl(Net& net, const AnyMessage& msg);

 private:
  void StartLookup(const LookupReq& req, std::vector<Outbound>& out) const;
  /// Consumes `step`: its cursor, route and hop log are the kernel visit's
  /// own state, and move on into the next frame.
  void ContinueLookup(uint64_t at, LookupStep step,
                      std::vector<Outbound>& out) const;
  /// Runs one kernel visit on a live cursor and emits the follow-up
  /// message, given the route/trace state reconstructed (or created) by the
  /// caller. Consumes `result`: its vectors move into the emitted message.
  void VisitAndEmit(uint64_t lookup_id, uint64_t client, uint64_t origin,
                    overlay::RouteCursor& cursor, overlay::RouteResult& result,
                    RouteTrace* trace, std::vector<Outbound>& out) const;
  /// Whether this host routes under an enabled fault plan; every STEP it
  /// emits or accepts carries that as its resilient flag.
  bool resilient() const;
  void EmitError(uint64_t lookup_id, uint64_t client, uint64_t origin,
                 uint64_t key, LookupWireStatus status,
                 std::vector<Outbound>& out) const;

  const Net* net_;
  Config config_;
};

/// Reassembles the direct-call outputs from a DONE message: the final
/// RouteResult and, when the lookup was traced, the full RouteTrace. The
/// returned status mirrors what LookupInto would have returned.
Status UnpackDone(const LookupDone& done, overlay::RouteResult& result,
                  RouteTrace* trace);

/// Maps a RouteKernel::Begin failure status onto the wire status byte.
LookupWireStatus WireStatusOf(const Status& s);

// Member definitions live in actor_node.cc, which explicitly instantiates
// ActorHost for the three overlay backends (ChordNetwork, PastryNetwork,
// KademliaNetwork); users link against those instantiations.

}  // namespace peercache::net

#endif  // PEERCACHE_NET_ACTOR_NODE_H_
