#include "net/actor_node.h"

#include <algorithm>
#include <span>
#include <utility>
#include <variant>

#include "chord/chord_network.h"
#include "common/route_kernel.h"
#include "common/route_result.h"
#include "kademlia/kademlia_network.h"
#include "pastry/pastry_network.h"

namespace peercache::net {

LookupWireStatus WireStatusOf(const Status& s) {
  if (s.ok()) return LookupWireStatus::kOk;
  if (s.code() == StatusCode::kUnavailable) {
    return LookupWireStatus::kOriginNotAlive;
  }
  return LookupWireStatus::kEmptyOverlay;
}

Status UnpackDone(const LookupDone& done, overlay::RouteResult& result,
                  RouteTrace* trace) {
  result.Clear();
  switch (static_cast<LookupWireStatus>(done.status)) {
    case LookupWireStatus::kOk:
      break;
    case LookupWireStatus::kOriginNotAlive:
      return Status::Unavailable("origin not alive");
    case LookupWireStatus::kEmptyOverlay:
      return Status::FailedPrecondition("empty overlay");
    case LookupWireStatus::kProtocolError:
      return Status::Internal("lookup protocol error");
  }
  result = done.route;
  if (trace != nullptr && done.traced()) {
    trace->origin = done.origin;
    trace->key = done.key;
    trace->destination = result.destination;
    trace->success = result.success;
    trace->hops = result.hops;
    trace->latency_ms = result.latency_ms;
    trace->path = done.hops;
  }
  return Status::Ok();
}

template <typename Net>
std::vector<uint8_t> ActorHost<Net>::MakeLookupReq(uint64_t lookup_id,
                                                   uint64_t origin,
                                                   uint64_t key) const {
  LookupReq req;
  req.lookup_id = lookup_id;
  req.client = kClientAddress;
  req.origin = origin;
  req.key = key;
  if (config_.traced) req.flags |= LookupReq::kFlagTraced;
  return Encode(req);
}

template <typename Net>
void ActorHost<Net>::EmitError(uint64_t lookup_id, uint64_t client,
                               uint64_t origin, uint64_t key,
                               LookupWireStatus status,
                               std::vector<Outbound>& out) const {
  LookupDone done;
  done.lookup_id = lookup_id;
  done.client = client;
  done.origin = origin;
  done.key = key;
  done.status = static_cast<uint8_t>(status);
  Outbound o;
  o.dst = client;
  o.payload = Encode(done);
  out.push_back(std::move(o));
}

template <typename Net>
bool ActorHost<Net>::resilient() const {
  return config_.faults != nullptr && config_.faults->enabled();
}

template <typename Net>
void ActorHost<Net>::VisitAndEmit(uint64_t lookup_id, uint64_t client,
                                  uint64_t origin,
                                  overlay::RouteCursor& cursor,
                                  overlay::RouteResult& result,
                                  RouteTrace* trace,
                                  std::vector<Outbound>& out) const {
  const double before = result.latency_ms;
  overlay::RouteKernel<Net>::Visit(
      *net_, cursor, result, {trace, config_.faults, config_.latency});
  // The visit's latency span is the message's transit time — the
  // LatencyModel is the bus's delivery clock. The full sum still travels
  // bit-exact inside the route state, so telemetry never re-accumulates.
  const double delay = result.latency_ms - before;
  Outbound o;
  o.delay_ms = delay;
  if (cursor.done) {
    LookupDone done;
    done.lookup_id = lookup_id;
    done.client = client;
    done.origin = origin;
    done.key = cursor.key;
    done.status = static_cast<uint8_t>(LookupWireStatus::kOk);
    done.route = std::move(result);
    if (trace != nullptr) {
      done.flags |= LookupDone::kFlagTraced;
      done.hops = std::move(trace->path);
    }
    o.dst = client;
    o.payload = Encode(done);
  } else {
    LookupStep step;
    step.lookup_id = lookup_id;
    step.client = client;
    step.origin = origin;
    step.cursor = cursor;
    step.resilient = resilient();
    step.route = std::move(result);
    if (trace != nullptr) {
      step.flags |= LookupStep::kFlagTraced;
      step.hops = std::move(trace->path);
    }
    o.dst = cursor.current;
    o.payload = Encode(step);
  }
  out.push_back(std::move(o));
}

template <typename Net>
void ActorHost<Net>::StartLookup(const LookupReq& req,
                                 std::vector<Outbound>& out) const {
  overlay::RouteCursor cursor;
  overlay::RouteResult result;
  RouteTrace trace;
  RouteTrace* tp = req.traced() ? &trace : nullptr;
  const Status s = overlay::RouteKernel<Net>::Begin(*net_, req.origin, req.key,
                                                    cursor, result, tp);
  if (!s.ok()) {
    EmitError(req.lookup_id, req.client, req.origin, req.key, WireStatusOf(s),
              out);
    return;
  }
  VisitAndEmit(req.lookup_id, req.client, req.origin, cursor, result, tp, out);
}

template <typename Net>
void ActorHost<Net>::ContinueLookup(uint64_t at, LookupStep step,
                                    std::vector<Outbound>& out) const {
  overlay::RouteCursor& cursor = step.cursor;
  const overlay::RouteResult& r = step.route;
  // The cursor must stand at this live node and carry this host's routing
  // policy, and every counter must lie in [0, max_route_hops + 1]: a live
  // route has spent at most the hop budget plus the one over-budget
  // forward, and a u32 counter of 2^31 or more decodes negative. Anything
  // else is a frame the kernel must never visit (bounded counters also
  // cannot overflow inside the visit).
  const auto [lo, hi] =
      std::minmax({cursor.hops_taken, cursor.spent, cursor.attempt,
                   r.aux_hops, r.retries, r.dropped_forwards,
                   r.failstop_skips, r.stale_forwards});
  const bool counters_ok =
      lo >= 0 && int64_t{hi} <= int64_t{net_->params().max_route_hops} + 1;
  if (cursor.current != at || !net_->IsAlive(at) ||
      step.resilient != resilient() || !counters_ok) {
    EmitError(step.lookup_id, step.client, step.origin, cursor.key,
              LookupWireStatus::kProtocolError, out);
    return;
  }
  // The record hint and done bit do not travel: the route resumes live at
  // this node's record.
  cursor.node = net_->GetNode(at);
  cursor.done = false;
  RouteTrace trace;
  RouteTrace* tp = nullptr;
  if (step.traced()) {
    trace.origin = step.origin;
    trace.key = cursor.key;
    trace.path = std::move(step.hops);
    tp = &trace;
  }
  VisitAndEmit(step.lookup_id, step.client, step.origin, cursor, step.route,
               tp, out);
}

template <typename Net>
void ActorHost<Net>::HandleMessage(const Envelope& env,
                                   std::vector<Outbound>& out) const {
  auto decoded = Decode(std::span<const uint8_t>(env.payload));
  if (!decoded.ok()) return;  // undecodable frame: dropped, never UB
  AnyMessage& msg = decoded.value();
  if (const auto* req = std::get_if<LookupReq>(&msg)) {
    if (req->origin != env.dst) {
      EmitError(req->lookup_id, req->client, req->origin, req->key,
                LookupWireStatus::kProtocolError, out);
      return;
    }
    StartLookup(*req, out);
  } else if (auto* step = std::get_if<LookupStep>(&msg)) {
    ContinueLookup(env.dst, std::move(*step), out);
  }
  // DONE is client-side; control messages go through ApplyControl.
}

template <typename Net>
Status ActorHost<Net>::ApplyControl(Net& net, const AnyMessage& msg) {
  if (const auto* join = std::get_if<Join>(&msg)) {
    const auto* node = net.GetNode(join->node_id);
    if (node != nullptr && !net.IsAlive(join->node_id)) {
      return net.RejoinNode(join->node_id);
    }
    return net.AddNode(join->node_id);
  }
  if (const auto* leave = std::get_if<Leave>(&msg)) {
    return net.RemoveNode(leave->node_id, leave->forget_state != 0);
  }
  if (const auto* stab = std::get_if<Stabilize>(&msg)) {
    if (stab->node_id == kAllNodes) {
      net.StabilizeAll();
      return Status::Ok();
    }
    return net.StabilizeNode(stab->node_id);
  }
  return Status::InvalidArgument("not a control message");
}

template class ActorHost<chord::ChordNetwork>;
template class ActorHost<pastry::PastryNetwork>;
template class ActorHost<kademlia::KademliaNetwork>;

}  // namespace peercache::net
