#ifndef PEERCACHE_COMMON_ROUTE_KERNEL_H_
#define PEERCACHE_COMMON_ROUTE_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/fault.h"
#include "common/latency.h"
#include "common/route_result.h"
#include "common/status.h"
#include "common/trace.h"

namespace peercache::overlay {

/// Optional per-lookup instrumentation and environment, all null by
/// default. `trace` collects per-hop records; an enabled `faults` plan
/// routes every forwarding attempt through its deterministic drop /
/// fail-stop / stale gates with per-visit retries; an enabled `latency`
/// model accrues hop spans and failed-attempt timeouts. A null or disabled
/// plan or model changes nothing about the route.
struct RouteOptions {
  RouteTrace* trace = nullptr;
  const fault::FaultPlan* faults = nullptr;
  const latency::LatencyModel* latency = nullptr;
};

/// One suspended lookup at node-visit granularity, shared by every overlay
/// and every driver: LookupInto runs visits until done, the batched engine
/// interleaves a window of cursors, and the message runtime carries the
/// cursor itself in a LOOKUP_STEP frame (net::LookupStep) to the next node,
/// where it resumes with `node` and `done` reset.
struct RouteCursor {
  uint64_t current = 0;  ///< node the route stands at
  uint64_t key = 0;
  uint64_t truth = 0;    ///< responsible node, resolved at Begin
  int hops_taken = 0;    ///< successful forwards (delivered path length)
  int spent = 0;         ///< hop budget used: successful + failed attempts
  int attempt = 0;       ///< retransmission-decorrelation counter (faults)
  bool latch = false;    ///< geometry mode latch (Pastry's numeric mode)
  bool done = true;
  /// Record of `current` when the driver already holds it (Begin sets it;
  /// the batched engine sets it to prefetch); null means "look it up". Not
  /// serialized — a cursor rebuilt from the wire starts without it.
  const void* node = nullptr;
};

/// A backend's ranking of one node's table toward a key: the best entry
/// that passes the candidate filter.
struct RankedHop {
  uint64_t next = 0;        ///< chosen entry; == current means deliver here
  uint64_t remaining = 0;   ///< distance left after the hop (trace metric)
  HopEntryKind kind = HopEntryKind::kFinger;
  bool final_hop = false;   ///< `next` answers without visiting further
  bool sets_latch = false;  ///< taking the hop latches the cursor
};

/// The routing loop, written once for every geometry. A backend `Net`
/// supplies
///
///   template <typename Usable>
///   RankedHop Rank(const NodeType& node, uint64_t current, uint64_t key,
///                  bool latch, const Usable& usable) const;
///
/// where `usable(w, final_hop)` says whether table entry `w` may be chosen
/// (`final_hop` marks a candidate that would answer directly, such as
/// Pastry's leaf-set delivery; such candidates ignore drop exclusions, so a
/// dropped delivery is retransmitted to the same member). Without an enabled
/// fault plan the filter is exactly `IsAlive`. Everything else — the budget
/// checks, the fault gates, the per-visit exclusion sets and retry loop,
/// dead-entry reports, trace and latency accrual — lives here.
///
/// Members are defined out of class and instantiated once per backend in
/// that backend's .cc (which is where its Rank is defined); the backend
/// header declares the instantiation extern.
template <typename Net>
class RouteKernel {
 public:
  using Node = typename Net::NodeType;

  /// Positions `cursor` at `origin`, clears `out` (keeping capacity),
  /// resolves ground truth, and seeds the trace header. Fails with
  /// Unavailable for a dead origin and FailedPrecondition for an empty
  /// overlay; the cursor then stays done.
  static Status Begin(const Net& net, uint64_t origin, uint64_t key,
                      RouteCursor& cursor, RouteResult& out,
                      RouteTrace* trace);

  /// One node visit: rank the table, run the fault gates under an enabled
  /// plan, and forward, deliver, or exclude the entry and retry. No-op
  /// when the cursor is done. Pass the same options on every visit.
  static void Visit(const Net& net, RouteCursor& cursor, RouteResult& out,
                    const RouteOptions& options);

  /// Begin, then visits until done.
  static Status LookupInto(const Net& net, uint64_t origin, uint64_t key,
                           RouteResult& out, const RouteOptions& options);
  static Result<RouteResult> Lookup(const Net& net, uint64_t origin,
                                    uint64_t key, const RouteOptions& options);

 private:
  static void Finish(RouteCursor& cursor, RouteResult& out, RouteTrace* trace,
                     uint64_t destination, int hops, bool delivered);
};

template <typename Net>
Status RouteKernel<Net>::Begin(const Net& net, uint64_t origin, uint64_t key,
                               RouteCursor& cursor, RouteResult& out,
                               RouteTrace* trace) {
  cursor = RouteCursor{};
  out.Clear();
  if (!net.IsAlive(origin)) return Status::Unavailable("origin not alive");
  auto truth = net.ResponsibleNode(key);
  if (!truth.ok()) return truth.status();
  cursor.current = origin;
  cursor.key = key;
  cursor.truth = truth.value();
  cursor.node = net.GetNode(origin);
  cursor.done = false;
  if (trace != nullptr) {
    trace->origin = origin;
    trace->key = key;
  }
  return Status::Ok();
}

template <typename Net>
void RouteKernel<Net>::Finish(RouteCursor& cursor, RouteResult& out,
                              RouteTrace* trace, uint64_t destination,
                              int hops, bool delivered) {
  out.destination = destination;
  out.hops = hops;
  out.success = delivered && destination == cursor.truth;
  if (trace != nullptr) {
    trace->destination = out.destination;
    trace->success = out.success;
    trace->hops = out.hops;
    trace->latency_ms = out.latency_ms;
  }
  cursor.done = true;
}

template <typename Net>
void RouteKernel<Net>::Visit(const Net& net, RouteCursor& cursor,
                             RouteResult& out, const RouteOptions& options) {
  if (cursor.done) return;
  RouteTrace* const trace = options.trace;
  const int max_hops = net.params().max_route_hops;
  if (cursor.spent > max_hops) {
    // The forward that brought the route here overran the hop budget.
    out.budget_exhausted = true;
    Finish(cursor, out, trace, cursor.current, max_hops, /*delivered=*/false);
    return;
  }
  const uint64_t current = cursor.current;
  const uint64_t key = cursor.key;
  const Node& node = cursor.node != nullptr
                         ? *static_cast<const Node*>(cursor.node)
                         : *net.GetNode(current);
  cursor.node = nullptr;
  const fault::FaultPlan* plan =
      options.faults != nullptr && options.faults->enabled() ? options.faults
                                                             : nullptr;
  const latency::LatencyModel* timed =
      options.latency != nullptr && options.latency->enabled()
          ? options.latency
          : nullptr;

  // Per-visit exclusion sets, touched only after a failed attempt. Entries
  // that turned out dead (stale or fail-stopped) are never retried here;
  // drop-excluded entries become eligible again only when no alternative
  // makes progress (retransmission). Visit-local, so concurrent visits
  // share nothing and a route crosses a message boundary as plain fields.
  std::vector<uint64_t> dead_here;
  std::vector<uint64_t> dropped_here;
  bool retransmit = false;
  int retries_here = 0;
  auto excluded = [](const std::vector<uint64_t>& set, uint64_t w) {
    return std::find(set.begin(), set.end(), w) != set.end();
  };
  // Ping-before-forward skips known-dead entries — unless this lookup falls
  // inside the entry's stale window, when the holder believes the ping and
  // forwards into the void.
  auto believed_usable = [&](uint64_t w, bool final_hop) {
    if (retries_here > 0) {
      if (excluded(dead_here, w)) return false;
      if (!final_hop && !retransmit && excluded(dropped_here, w)) {
        return false;
      }
    }
    return net.IsAlive(w) || plan->StaleBelievedAlive(key, current, w);
  };
  auto rank = [&] {
    if (plan == nullptr) {
      return net.Rank(node, current, key, cursor.latch,
                      [&net](uint64_t w, bool) { return net.IsAlive(w); });
    }
    retransmit = false;
    RankedHop hop = net.Rank(node, current, key, cursor.latch,
                             believed_usable);
    if (hop.next == current && !dropped_here.empty()) {
      retransmit = true;
      hop = net.Rank(node, current, key, cursor.latch, believed_usable);
    }
    return hop;
  };

  while (true) {
    const RankedHop hop = rank();
    if (hop.next == current) {
      // Nothing usable makes progress: to this node's knowledge it is
      // responsible for the key, so it answers.
      Finish(cursor, out, trace, current, cursor.hops_taken,
             /*delivered=*/true);
      return;
    }

    // Fault gates, in failure-cause order: a dead entry can never receive,
    // a fail-stopped target is down for this whole lookup, and an
    // otherwise-healthy forward can still lose its message.
    bool failed = false;
    if (plan != nullptr) {
      failed = true;
      if (!net.IsAlive(hop.next)) {
        ++out.stale_forwards;
        out.dead_evictions.emplace_back(current, hop.next);
        dead_here.push_back(hop.next);
      } else if (plan->FailStopped(key, hop.next)) {
        ++out.failstop_skips;
        dead_here.push_back(hop.next);
      } else if (plan->DropForward(key, current, hop.next,
                                   cursor.attempt++)) {
        ++out.dropped_forwards;
        dropped_here.push_back(hop.next);
      } else {
        failed = false;
      }
    }

    if (!failed) {
      if (hop.kind == HopEntryKind::kAuxiliary) ++out.aux_hops;
      if (trace != nullptr) {
        trace->path.push_back({current, hop.next, hop.kind, hop.remaining,
                               /*dropped=*/false,
                               /*retried=*/retries_here > 0});
      }
      if (timed != nullptr) {
        const double ms =
            timed->HopLatencyMs(key, current, hop.next, cursor.spent);
        out.latency_ms += ms;
        if (trace != nullptr) trace->path.back().latency_ms = ms;
      }
      out.path.push_back(current);
      ++cursor.hops_taken;
      ++cursor.spent;
      if (hop.final_hop) {
        Finish(cursor, out, trace, hop.next, cursor.hops_taken,
               /*delivered=*/true);
        return;
      }
      if (hop.sets_latch) cursor.latch = true;
      cursor.current = hop.next;
      return;  // the next node's visit continues the route
    }

    // Failed attempt: charge both budgets, honor the retry policy.
    ++out.retries;
    ++retries_here;
    ++cursor.spent;
    if (trace != nullptr) {
      trace->path.push_back({current, hop.next, hop.kind, hop.remaining,
                             /*dropped=*/true, /*retried=*/false});
    }
    if (timed != nullptr) {
      const double ms = timed->FailedAttemptMs();
      out.latency_ms += ms;
      if (trace != nullptr) trace->path.back().latency_ms = ms;
    }
    if (!plan->config().retry) {
      Finish(cursor, out, trace, current, cursor.hops_taken,
             /*delivered=*/false);
      return;
    }
    if (retries_here > plan->config().max_retries ||
        cursor.spent > max_hops) {
      out.budget_exhausted = true;
      Finish(cursor, out, trace, current, cursor.hops_taken,
             /*delivered=*/false);
      return;
    }
  }
}

template <typename Net>
Status RouteKernel<Net>::LookupInto(const Net& net, uint64_t origin,
                                    uint64_t key, RouteResult& out,
                                    const RouteOptions& options) {
  RouteCursor cursor;
  if (Status s = Begin(net, origin, key, cursor, out, options.trace);
      !s.ok()) {
    return s;
  }
  while (!cursor.done) Visit(net, cursor, out, options);
  return Status::Ok();
}

template <typename Net>
Result<RouteResult> RouteKernel<Net>::Lookup(const Net& net, uint64_t origin,
                                             uint64_t key,
                                             const RouteOptions& options) {
  RouteResult result;
  if (Status s = LookupInto(net, origin, key, result, options); !s.ok()) {
    return s;
  }
  return result;
}

}  // namespace peercache::overlay

#endif  // PEERCACHE_COMMON_ROUTE_KERNEL_H_
