// Property-based invariants for the resilient routing layer
// (docs/RESILIENCE.md), driven by the proptest harness in tests/test_util.h:
// randomized overlays, crash sets, workloads, and fault plans, with failing
// cases shrunk to a labeled counterexample.
//
// The properties:
//  * progress — every forwarding attempt strictly decreases the remaining
//    id-space distance (Chord: clockwise distance to the key; Pastry: a
//    strictly longer common prefix or a strictly smaller ring distance,
//    with the documented smaller-id tie rule on the final leaf-set
//    delivery hop only; Kademlia: a strictly smaller XOR distance, no tie
//    rule — the XOR metric has unique distances),
//  * termination — attempts never exceed the hop budget plus the final
//    over-budget probe, per-visit retries respect max_retries, and a
//    budget abort raises budget_exhausted rather than failing silently,
//  * equivalence — an enabled plan whose gates cannot fire (stale windows
//    on an all-alive overlay) reproduces the fault-free route bit for bit,
//    and an all-zero plan routes exactly as no plan at all,
//  * determinism — replaying a lookup under the same plan is byte-stable.
//
// Together with the equivalence suite below this registers 315 randomized
// cases (105 per overlay), each routing up to ten lookups.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chord/chord_network.h"
#include "common/bits.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/ring_id.h"
#include "common/route_result.h"
#include "common/status.h"
#include "common/trace.h"
#include "experiments/batch_engine.h"
#include "kademlia/kademlia_network.h"
#include "pastry/pastry_network.h"
#include "test_util.h"

namespace peercache {
namespace {

constexpr int kInvariantCases = 60;    // per overlay
constexpr int kEquivalenceCases = 45;  // per overlay

/// One randomized scenario: an overlay population, a crash set applied
/// after the last stabilization (so surviving tables go stale), and a
/// fault plan. Drawn entirely through the proptest tape so it shrinks.
struct Scenario {
  int bits = 16;
  std::vector<uint64_t> ids;   // nodes added, in insertion order
  std::vector<uint64_t> live;  // still alive after the crash set
  int aux_per_node = 0;
  uint64_t net_seed = 1;   // drives id sampling and auxiliary picks
  uint64_t work_seed = 1;  // drives lookup origins and keys
  int queries = 1;
  fault::FaultConfig faults;
};

Scenario DrawScenario(proptest::Case& c, bool with_crashes,
                      bool with_faults) {
  Scenario s;
  s.bits = static_cast<int>(c.Range("bits", 8, 16));
  const uint64_t n = c.Range("n", 2, 48);
  s.net_seed = c.Range("net_seed", 1, uint64_t{1} << 32);
  s.work_seed = c.Range("work_seed", 1, uint64_t{1} << 32);
  s.aux_per_node = static_cast<int>(c.Range("aux", 0, 6));
  const uint64_t crashed = with_crashes ? c.Range("crashed", 0, n / 3) : 0;
  s.queries = static_cast<int>(c.Range("queries", 1, 10));
  if (with_faults) {
    s.faults.drop_prob = 0.5 * c.Unit("drop");
    s.faults.fail_prob = 0.15 * c.Unit("fail");
    s.faults.stale_prob = c.Unit("stale");
    s.faults.max_retries = static_cast<int>(c.Range("max_retries", 1, 8));
    s.faults.retry = c.Bool("retry");
  }
  s.faults.seed = c.Range("fault_seed", 0, uint64_t{1} << 32);

  Rng rng(s.net_seed);
  const uint64_t space = uint64_t{1} << s.bits;
  s.ids = rng.SampleDistinct(space, static_cast<size_t>(n));
  std::vector<uint64_t> crash_idx =
      rng.SampleDistinct(n, static_cast<size_t>(crashed));
  std::vector<bool> dead(s.ids.size(), false);
  for (uint64_t i : crash_idx) dead[static_cast<size_t>(i)] = true;
  for (size_t i = 0; i < s.ids.size(); ++i) {
    if (!dead[i]) s.live.push_back(s.ids[i]);
  }
  return s;
}

/// Adds every node, stabilizes, installs random auxiliaries, then applies
/// the crash set with no further stabilization — the crashed nodes linger
/// in the survivors' tables exactly as a churn window would leave them.
template <typename Net>
std::string Populate(Net& net, const Scenario& s) {
  for (uint64_t id : s.ids) {
    if (Status st = net.AddNode(id); !st.ok()) {
      return "AddNode failed: " + st.ToString();
    }
  }
  net.StabilizeAll();
  Rng rng(SplitSeed(s.net_seed, 0x617578));  // "aux"
  for (uint64_t id : s.ids) {
    std::vector<uint64_t> aux;
    for (int a = 0; a < s.aux_per_node; ++a) {
      uint64_t pick =
          s.ids[static_cast<size_t>(rng.UniformU64(s.ids.size()))];
      if (pick != id) aux.push_back(pick);
    }
    if (Status st = net.SetAuxiliaries(id, aux); !st.ok()) {
      return "SetAuxiliaries failed: " + st.ToString();
    }
  }
  std::vector<bool> alive(s.ids.size(), false);
  for (size_t i = 0; i < s.ids.size(); ++i) {
    for (uint64_t keep : s.live) {
      if (s.ids[i] == keep) alive[i] = true;
    }
  }
  for (size_t i = 0; i < s.ids.size(); ++i) {
    if (alive[i]) continue;
    if (Status st = net.RemoveNode(s.ids[i]); !st.ok()) {
      return "RemoveNode failed: " + st.ToString();
    }
  }
  return "";
}

std::string U64(uint64_t v) { return std::to_string(v); }

std::string Where(const char* what, int q, uint64_t origin, uint64_t key) {
  return std::string(what) + " (query " + std::to_string(q) + ", origin " +
         U64(origin) + ", key " + U64(key) + ")";
}

/// Chord progress rule: every attempt — delivered or dropped — targets an
/// entry strictly clockwise-closer to the key, and the recorded remaining
/// distance is the target's true distance.
std::string ChordHopOk(const IdSpace& space, const HopRecord& r,
                       uint64_t key, bool /*is_last*/) {
  const uint64_t before = space.ClockwiseDistance(r.from, key);
  const uint64_t after = space.ClockwiseDistance(r.to, key);
  if (after >= before) {
    return "chord hop " + U64(r.from) + "->" + U64(r.to) +
           " does not decrease clockwise distance (" + U64(before) + " -> " +
           U64(after) + ")";
  }
  if (r.remaining != after) {
    return "chord hop remaining mismatch: recorded " + U64(r.remaining) +
           " vs actual " + U64(after);
  }
  return "";
}

/// Pastry progress rule: a strictly longer common prefix (R2), a strictly
/// smaller ring distance (R3 and ordinary R1 delivery), or the equal-
/// distance smaller-id tie on the final delivery hop. Dropped attempts may
/// sit on the tie anywhere (a lost delivery message is retransmitted).
std::string PastryHopOk(const IdSpace& space, const HopRecord& r,
                        uint64_t key, bool is_last) {
  const int bits = space.bits();
  const int lcp_from = CommonPrefixLength(r.from, key, bits);
  const int lcp_to = CommonPrefixLength(r.to, key, bits);
  auto ring_distance = [&space](uint64_t a, uint64_t b) {
    return std::min(space.ClockwiseDistance(a, b),
                    space.ClockwiseDistance(b, a));
  };
  const uint64_t d_from = ring_distance(r.from, key);
  const uint64_t d_to = ring_distance(r.to, key);
  const bool progress = lcp_to > lcp_from || d_to < d_from;
  const bool delivery_tie = d_to == d_from && r.to < r.from;
  if (!progress && !(delivery_tie && (r.dropped || is_last))) {
    return "pastry hop " + U64(r.from) + "->" + U64(r.to) +
           " makes no progress (lcp " + std::to_string(lcp_from) + " -> " +
           std::to_string(lcp_to) + ", ring distance " + U64(d_from) +
           " -> " + U64(d_to) + ")";
  }
  if (r.remaining != static_cast<uint64_t>(bits - lcp_to)) {
    return "pastry hop remaining mismatch: recorded " + U64(r.remaining) +
           " vs actual " + U64(static_cast<uint64_t>(bits - lcp_to));
  }
  return "";
}

/// Kademlia progress rule: every attempt targets an entry strictly
/// XOR-closer to the key — the metric is a total order on distinct ids, so
/// no tie rule exists — and the recorded remaining distance is the
/// target's full XOR distance to the key.
std::string KademliaHopOk(const IdSpace& /*space*/, const HopRecord& r,
                          uint64_t key, bool /*is_last*/) {
  const uint64_t before = r.from ^ key;
  const uint64_t after = r.to ^ key;
  if (after >= before) {
    return "kademlia hop " + U64(r.from) + "->" + U64(r.to) +
           " does not decrease XOR distance (" + U64(before) + " -> " +
           U64(after) + ")";
  }
  if (r.remaining != after) {
    return "kademlia hop remaining mismatch: recorded " + U64(r.remaining) +
           " vs actual " + U64(after);
  }
  return "";
}

/// Structural audit of one faulted route against its trace.
template <typename Net, typename HopOkFn>
std::string CheckStructure(const Net& net, const Scenario& s,
                           uint64_t origin, uint64_t key,
                           const overlay::RouteResult& route,
                           const RouteTrace& trace, const HopOkFn& hop_ok) {
  const int max_hops = net.params().max_route_hops;
  size_t delivered_records = 0;
  size_t dropped_records = 0;
  int drops_since_move = 0;
  uint64_t pos = origin;
  for (size_t i = 0; i < trace.path.size(); ++i) {
    const HopRecord& r = trace.path[i];
    if (r.from != pos) {
      return "trace chain broken at record " + std::to_string(i) +
             ": from " + U64(r.from) + " but route is at " + U64(pos);
    }
    if (std::string err =
            hop_ok(net.space(), r, key, i + 1 == trace.path.size());
        !err.empty()) {
      return err;
    }
    if (r.dropped) {
      if (r.retried) return "a dropped record cannot also be retried";
      ++dropped_records;
      ++drops_since_move;
      continue;
    }
    if (r.retried != (drops_since_move > 0)) {
      return std::string("retried flag wrong at record ") +
             std::to_string(i) + ": " + (r.retried ? "set" : "unset") +
             " after " + std::to_string(drops_since_move) +
             " drops at this visit";
    }
    ++delivered_records;
    drops_since_move = 0;
    pos = r.to;
  }
  if (route.destination != pos) {
    return "destination " + U64(route.destination) +
           " is not where the delivered hops end (" + U64(pos) + ")";
  }
  if (route.path.size() != delivered_records) {
    return "path length " + std::to_string(route.path.size()) +
           " != delivered trace records " + std::to_string(delivered_records);
  }
  if (route.retries != static_cast<int>(dropped_records)) {
    return "retries " + std::to_string(route.retries) +
           " != dropped trace records " + std::to_string(dropped_records);
  }
  if (route.retries != route.dropped_forwards + route.failstop_skips +
                           route.stale_forwards) {
    return "retry cause counters do not sum to retries";
  }
  if (route.hops > max_hops) {
    return "hops " + std::to_string(route.hops) + " over the budget " +
           std::to_string(max_hops);
  }
  // Every attempt spent one unit of budget; the loop may probe once while
  // exactly at the cap before aborting.
  if (trace.path.size() > static_cast<size_t>(max_hops) + 1) {
    return "attempts " + std::to_string(trace.path.size()) +
           " exceed the hop budget plus the final probe";
  }
  if (route.hops != static_cast<int>(route.path.size()) &&
      !(route.budget_exhausted && route.hops == max_hops)) {
    return "hops " + std::to_string(route.hops) +
           " disagree with path length " + std::to_string(route.path.size());
  }
  if (route.budget_exhausted && route.success) {
    return "a budget-exhausted lookup cannot be successful";
  }
  if (!s.faults.retry && route.retries > 0 &&
      (route.retries != 1 || route.success)) {
    return "with retries disabled the first failure must abort the lookup";
  }
  if (route.success) {
    auto truth = net.ResponsibleNode(key);
    if (!truth.ok()) return "ResponsibleNode failed on a success route";
    if (route.destination != truth.value()) {
      return "successful lookup delivered at " + U64(route.destination) +
             " but " + U64(truth.value()) + " is responsible";
    }
  }
  for (const auto& [holder, entry] : route.dead_evictions) {
    if (!net.IsAlive(holder) || net.IsAlive(entry)) {
      return "dead eviction (" + U64(holder) + ", " + U64(entry) +
             ") must name a live holder and a dead entry";
    }
  }
  return "";
}

bool SameRoute(const overlay::RouteResult& a, const overlay::RouteResult& b) {
  return a.success == b.success && a.destination == b.destination &&
         a.hops == b.hops && a.aux_hops == b.aux_hops && a.path == b.path &&
         a.retries == b.retries &&
         a.dropped_forwards == b.dropped_forwards &&
         a.failstop_skips == b.failstop_skips &&
         a.stale_forwards == b.stale_forwards &&
         a.budget_exhausted == b.budget_exhausted &&
         a.dead_evictions == b.dead_evictions;
}

bool SameTrace(const RouteTrace& a, const RouteTrace& b) {
  if (a.destination != b.destination || a.success != b.success ||
      a.hops != b.hops || a.path.size() != b.path.size()) {
    return false;
  }
  for (size_t i = 0; i < a.path.size(); ++i) {
    const HopRecord& x = a.path[i];
    const HopRecord& y = b.path[i];
    if (x.from != y.from || x.to != y.to || x.kind != y.kind ||
        x.remaining != y.remaining || x.dropped != y.dropped ||
        x.retried != y.retried) {
      return false;
    }
  }
  return true;
}

/// Invariant property body: route the scenario's workload under its fault
/// plan, audit every route, and replay each lookup once to pin determinism.
template <typename Net, typename HopOkFn>
std::string CheckFaultedLookups(const Net& net, const Scenario& s,
                                const HopOkFn& hop_ok) {
  const fault::FaultPlan plan(s.faults);
  Rng rng(s.work_seed);
  for (int q = 0; q < s.queries; ++q) {
    const uint64_t origin =
        s.live[static_cast<size_t>(rng.UniformU64(s.live.size()))];
    const uint64_t key = rng.NextU64() & LowBitMask(s.bits);
    overlay::RouteResult route;
    RouteTrace trace;
    if (Status st = net.LookupInto(origin, key, route, {&trace, &plan});
        !st.ok()) {
      return Where("lookup failed", q, origin, key) + ": " + st.ToString();
    }
    if (std::string err =
            CheckStructure(net, s, origin, key, route, trace, hop_ok);
        !err.empty()) {
      return err + " — " + Where("", q, origin, key);
    }
    overlay::RouteResult again;
    RouteTrace trace_again;
    if (Status st = net.LookupInto(origin, key, again, {&trace_again, &plan});
        !st.ok()) {
      return Where("replay failed", q, origin, key) + ": " + st.ToString();
    }
    if (!SameRoute(route, again) || !SameTrace(trace, trace_again)) {
      return Where("replay under the same plan diverged", q, origin, key);
    }
  }
  return "";
}

/// Equivalence property body: on an all-alive overlay a plan with only
/// stale windows enabled runs the kernel's fault gates and stale filter but
/// can never fire a gate, so it must reproduce the fault-free route
/// exactly; a disabled plan must route exactly as no plan at all.
template <typename Net>
std::string CheckZeroFaultEquivalence(const Net& net, const Scenario& s) {
  fault::FaultConfig armed;
  armed.stale_prob = 1.0;  // consults dead entries only; none exist here
  armed.seed = s.faults.seed;
  const fault::FaultPlan resilient(armed);
  const fault::FaultPlan disabled;  // all-zero: enabled() is false
  Rng rng(s.work_seed);
  for (int q = 0; q < s.queries; ++q) {
    const uint64_t origin =
        s.live[static_cast<size_t>(rng.UniformU64(s.live.size()))];
    const uint64_t key = rng.NextU64() & LowBitMask(s.bits);
    overlay::RouteResult base, faulted, off;
    RouteTrace base_trace, faulted_trace;
    if (Status st = net.LookupInto(origin, key, base, {.trace = &base_trace});
        !st.ok()) {
      return Where("fault-free lookup failed", q, origin, key);
    }
    if (Status st =
            net.LookupInto(origin, key, faulted, {&faulted_trace, &resilient});
        !st.ok()) {
      return Where("resilient lookup failed", q, origin, key);
    }
    if (Status st = net.LookupInto(origin, key, off, {.faults = &disabled});
        !st.ok()) {
      return Where("disabled-plan lookup failed", q, origin, key);
    }
    if (faulted.retries != 0 || faulted.budget_exhausted) {
      return Where("zero-fault route reported failures", q, origin, key);
    }
    if (!SameRoute(base, faulted) || !SameTrace(base_trace, faulted_trace)) {
      return Where("zero-fault route diverged from the fault-free route", q,
                   origin, key);
    }
    if (!SameRoute(base, off)) {
      return Where("disabled plan diverged from the null plan", q, origin,
                   key);
    }
  }
  return "";
}

TEST(RoutingInvariants, ChordFaultedRoutesKeepInvariants) {
  auto outcome =
      proptest::RunProperty(0xC403D, kInvariantCases, [](proptest::Case& c) {
        Scenario s =
            DrawScenario(c, /*with_crashes=*/true, /*with_faults=*/true);
        chord::ChordParams params;
        params.bits = s.bits;
        chord::ChordNetwork net(params);
        if (std::string err = Populate(net, s); !err.empty()) return err;
        return CheckFaultedLookups(net, s, ChordHopOk);
      });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(RoutingInvariants, PastryFaultedRoutesKeepInvariants) {
  auto outcome =
      proptest::RunProperty(0xBA512, kInvariantCases, [](proptest::Case& c) {
        Scenario s =
            DrawScenario(c, /*with_crashes=*/true, /*with_faults=*/true);
        pastry::PastryParams params;
        params.bits = s.bits;
        pastry::PastryNetwork net(params, s.net_seed);
        if (std::string err = Populate(net, s); !err.empty()) return err;
        return CheckFaultedLookups(net, s, PastryHopOk);
      });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(RoutingInvariants, KademliaFaultedRoutesKeepInvariants) {
  auto outcome =
      proptest::RunProperty(0x4AD17, kInvariantCases, [](proptest::Case& c) {
        Scenario s =
            DrawScenario(c, /*with_crashes=*/true, /*with_faults=*/true);
        kademlia::KademliaParams params;
        params.bits = s.bits;
        kademlia::KademliaNetwork net(params);
        if (std::string err = Populate(net, s); !err.empty()) return err;
        return CheckFaultedLookups(net, s, KademliaHopOk);
      });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(RoutingInvariants, ChordZeroFaultRouteEqualsFaultFreeRoute) {
  auto outcome = proptest::RunProperty(
      0x2E90, kEquivalenceCases, [](proptest::Case& c) {
        Scenario s =
            DrawScenario(c, /*with_crashes=*/false, /*with_faults=*/false);
        chord::ChordParams params;
        params.bits = s.bits;
        chord::ChordNetwork net(params);
        if (std::string err = Populate(net, s); !err.empty()) return err;
        return CheckZeroFaultEquivalence(net, s);
      });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(RoutingInvariants, PastryZeroFaultRouteEqualsFaultFreeRoute) {
  auto outcome = proptest::RunProperty(
      0x2E91, kEquivalenceCases, [](proptest::Case& c) {
        Scenario s =
            DrawScenario(c, /*with_crashes=*/false, /*with_faults=*/false);
        pastry::PastryParams params;
        params.bits = s.bits;
        pastry::PastryNetwork net(params, s.net_seed);
        if (std::string err = Populate(net, s); !err.empty()) return err;
        return CheckZeroFaultEquivalence(net, s);
      });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(RoutingInvariants, KademliaZeroFaultRouteEqualsFaultFreeRoute) {
  auto outcome = proptest::RunProperty(
      0x2E92, kEquivalenceCases, [](proptest::Case& c) {
        Scenario s =
            DrawScenario(c, /*with_crashes=*/false, /*with_faults=*/false);
        kademlia::KademliaParams params;
        params.bits = s.bits;
        kademlia::KademliaNetwork net(params);
        if (std::string err = Populate(net, s); !err.empty()) return err;
        return CheckZeroFaultEquivalence(net, s);
      });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

// Differential properties for the flat-table refactor and the batched
// lookup engine (docs/ARCHITECTURE.md §7): the batched pass, which drives
// the same routing-kernel visits as LookupInto, must agree with it job for
// job, and the flattened Kademlia buckets must retain exactly the set the
// naive per-bucket model keeps.

/// Batch-vs-single differential body: route a random job list through the
/// window-16 batched engine and through the LookupInto reference loop, and
/// require identical outcomes per job (including jobs the engine refuses).
template <typename Net>
std::string CheckBatchedMatchesSingle(const Net& net, const Scenario& s) {
  Rng rng(SplitSeed(s.work_seed, 0x626174));  // "bat"
  const size_t n_jobs = 1 + s.queries * 7;
  std::vector<experiments::LookupJob> jobs(n_jobs);
  for (auto& job : jobs) {
    // Mostly live origins, occasionally a dead one (the kernel's Begin
    // refuses it).
    job.origin = rng.UniformDouble() < 0.9
                     ? s.live[static_cast<size_t>(
                           rng.UniformU64(s.live.size()))]
                     : s.ids[static_cast<size_t>(
                           rng.UniformU64(s.ids.size()))];
    job.key = rng.NextU64() & LowBitMask(s.bits);
  }
  std::vector<experiments::BatchLookupResult> results(jobs.size());
  experiments::RunBatchedLookups(net, jobs, /*window=*/16, results);
  for (size_t i = 0; i < jobs.size(); ++i) {
    overlay::RouteResult route;
    const Status st = net.LookupInto(jobs[i].origin, jobs[i].key, route);
    if (st.ok() != results[i].ok) {
      return "job " + std::to_string(i) + ": batched ok=" +
             std::to_string(results[i].ok) + " but LookupInto says " +
             st.ToString();
    }
    if (!st.ok()) continue;
    if (results[i].destination != route.destination ||
        results[i].hops != route.hops ||
        results[i].aux_hops != route.aux_hops ||
        results[i].success != route.success) {
      return "job " + std::to_string(i) + " (origin " + U64(jobs[i].origin) +
             ", key " + U64(jobs[i].key) + "): batched {" +
             U64(results[i].destination) + ", " +
             std::to_string(results[i].hops) + ", " +
             std::to_string(results[i].aux_hops) + ", " +
             std::to_string(results[i].success) + "} vs single {" +
             U64(route.destination) + ", " + std::to_string(route.hops) +
             ", " + std::to_string(route.aux_hops) + ", " +
             std::to_string(route.success) + "}";
    }
  }
  return "";
}

TEST(BatchedLookups, ChordBatchedMatchesSingleLookup) {
  auto outcome = proptest::RunProperty(0xBA7C0, 40, [](proptest::Case& c) {
    Scenario s = DrawScenario(c, /*with_crashes=*/true, /*with_faults=*/false);
    chord::ChordParams params;
    params.bits = s.bits;
    chord::ChordNetwork net(params);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckBatchedMatchesSingle(net, s);
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(BatchedLookups, PastryBatchedMatchesSingleLookup) {
  auto outcome = proptest::RunProperty(0xBA7C1, 40, [](proptest::Case& c) {
    Scenario s = DrawScenario(c, /*with_crashes=*/true, /*with_faults=*/false);
    pastry::PastryParams params;
    params.bits = s.bits;
    pastry::PastryNetwork net(params, s.net_seed);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckBatchedMatchesSingle(net, s);
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(BatchedLookups, KademliaBatchedMatchesSingleLookup) {
  auto outcome = proptest::RunProperty(0xBA7C2, 40, [](proptest::Case& c) {
    Scenario s = DrawScenario(c, /*with_crashes=*/true, /*with_faults=*/false);
    kademlia::KademliaParams params;
    params.bits = s.bits;
    kademlia::KademliaNetwork net(params);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckBatchedMatchesSingle(net, s);
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

/// Batched-resolution differential body: resolve a random key list through the
/// window-16 ResponsibleCursor engine and through the ResponsibleNode
/// reference loop, and require identical owners key for key.
template <typename Net>
std::string CheckBatchedResponsibleMatches(const Net& net,
                                           const Scenario& s) {
  Rng rng(SplitSeed(s.work_seed, 0x726573));  // "res"
  const size_t n_keys = 1 + s.queries * 9;
  std::vector<uint64_t> keys(n_keys);
  for (uint64_t& key : keys) key = rng.NextU64() & LowBitMask(s.bits);
  std::vector<uint64_t> answers(n_keys);
  const Status st = experiments::RunBatchedResponsible(
      net, keys, /*window=*/16, std::span<uint64_t>(answers));
  if (!st.ok()) return "RunBatchedResponsible failed: " + st.ToString();
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto owner = net.ResponsibleNode(keys[i]);
    if (!owner.ok()) {
      return "ResponsibleNode failed: " + owner.status().ToString();
    }
    if (answers[i] != owner.value()) {
      return "key " + U64(keys[i]) + ": batched owner " + U64(answers[i]) +
             " vs ResponsibleNode " + U64(owner.value());
    }
  }
  return "";
}

TEST(BatchedResponsible, ChordBatchedMatchesResponsibleNode) {
  auto outcome = proptest::RunProperty(0xBA7D0, 40, [](proptest::Case& c) {
    Scenario s = DrawScenario(c, /*with_crashes=*/true, /*with_faults=*/false);
    chord::ChordParams params;
    params.bits = s.bits;
    chord::ChordNetwork net(params);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckBatchedResponsibleMatches(net, s);
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(BatchedResponsible, PastryBatchedMatchesResponsibleNode) {
  auto outcome = proptest::RunProperty(0xBA7D1, 40, [](proptest::Case& c) {
    Scenario s = DrawScenario(c, /*with_crashes=*/true, /*with_faults=*/false);
    pastry::PastryParams params;
    params.bits = s.bits;
    pastry::PastryNetwork net(params, s.net_seed);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckBatchedResponsibleMatches(net, s);
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(BatchedResponsible, KademliaBatchedMatchesResponsibleNode) {
  auto outcome = proptest::RunProperty(0xBA7D2, 40, [](proptest::Case& c) {
    Scenario s = DrawScenario(c, /*with_crashes=*/true, /*with_faults=*/false);
    kademlia::KademliaParams params;
    params.bits = s.bits;
    kademlia::KademliaNetwork net(params);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    return CheckBatchedResponsibleMatches(net, s);
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(FlatTables, KademliaFlatBucketsMatchNaiveModel) {
  // The trie-descent bucket fill over the sorted live array must retain,
  // per distance class, exactly what the naive model keeps: distribute all
  // other live ids by common-prefix length, sort each class by XOR
  // distance, truncate to bucket_size, re-sort by id.
  auto outcome = proptest::RunProperty(0xF1A7, 40, [](proptest::Case& c) {
    Scenario s = DrawScenario(c, /*with_crashes=*/true, /*with_faults=*/false);
    kademlia::KademliaParams params;
    params.bits = s.bits;
    params.bucket_size = static_cast<int>(c.Range("bucket_size", 1, 8));
    kademlia::KademliaNetwork net(params);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    net.StabilizeAll();  // rebuild from the post-crash live set

    std::vector<uint64_t> live = net.LiveNodeIds();
    for (uint64_t self : live) {
      // Naive shadow model.
      std::vector<std::vector<uint64_t>> model(
          static_cast<size_t>(s.bits));
      for (uint64_t w : live) {
        if (w == self) continue;
        model[static_cast<size_t>(CommonPrefixLength(self, w, s.bits))]
            .push_back(w);
      }
      size_t last_nonempty = 0;
      for (size_t i = 0; i < model.size(); ++i) {
        auto& bucket = model[i];
        std::sort(bucket.begin(), bucket.end(),
                  [self](uint64_t a, uint64_t b) {
                    return (a ^ self) < (b ^ self);
                  });
        if (bucket.size() > static_cast<size_t>(params.bucket_size)) {
          bucket.resize(static_cast<size_t>(params.bucket_size));
        }
        std::sort(bucket.begin(), bucket.end());
        if (!bucket.empty()) last_nonempty = i + 1;
      }
      model.resize(last_nonempty);

      const kademlia::KademliaNode* node = net.GetNode(self);
      if (net.BucketCount(*node) != model.size()) {
        return "node " + U64(self) + ": " +
               std::to_string(net.BucketCount(*node)) +
               " materialized classes vs model " +
               std::to_string(model.size());
      }
      for (size_t i = 0; i < model.size(); ++i) {
        const auto got = net.Bucket(*node, i);
        if (!std::equal(got.begin(), got.end(), model[i].begin(),
                        model[i].end())) {
          return "node " + U64(self) + " bucket " + std::to_string(i) +
                 " diverges from the naive model";
        }
      }
    }
    return std::string();
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

TEST(FlatTables, PastrySampledStabilizeStillRoutesExactly) {
  // The scale-frontier builds fill Pastry routing rows from a bounded
  // sample instead of an exact scan. Entries may differ (proximity choice),
  // but stable-state delivery must stay exact: rows only accelerate, the
  // leaf set still guarantees the final step.
  auto outcome = proptest::RunProperty(0x5A3B, 30, [](proptest::Case& c) {
    Scenario s = DrawScenario(c, /*with_crashes=*/false, /*with_faults=*/false);
    pastry::PastryParams params;
    params.bits = s.bits;
    params.stabilize_sample = 16;
    pastry::PastryNetwork net(params, s.net_seed);
    if (std::string err = Populate(net, s); !err.empty()) return err;
    Rng rng(s.work_seed);
    for (int q = 0; q < s.queries * 5; ++q) {
      const uint64_t origin =
          s.live[static_cast<size_t>(rng.UniformU64(s.live.size()))];
      const uint64_t key = rng.NextU64() & LowBitMask(s.bits);
      auto route = net.Lookup(origin, key);
      if (!route.ok()) return "lookup failed: " + route.status().ToString();
      if (!route->success) {
        return Where("sampled-stabilize lookup missed", q, origin, key);
      }
      auto truth = net.ResponsibleNode(key);
      if (!truth.ok() || route->destination != truth.value()) {
        return Where("sampled-stabilize lookup misdelivered", q, origin,
                     key);
      }
    }
    return std::string();
  });
  EXPECT_TRUE(outcome.ok)
      << "case " << outcome.failing_case << ": " << outcome.message
      << "\n  counterexample: " << outcome.counterexample;
}

// Harness self-checks: the shrinker must land on the boundary
// counterexample, and a passing property must report success.

TEST(PropertyHarness, ShrinksToTheBoundaryCounterexample) {
  auto outcome = proptest::RunProperty(7, 200, [](proptest::Case& c) {
    const uint64_t x = c.Range("x", 0, 1000);
    if (x > 100) return std::string("over 100");
    return std::string();
  });
  ASSERT_FALSE(outcome.ok);
  // Binary shrinking must land exactly on the smallest failing value.
  EXPECT_EQ(outcome.counterexample, "x=101");
  EXPECT_EQ(outcome.message, "over 100");
}

TEST(PropertyHarness, PassingPropertyReportsSuccess) {
  auto outcome = proptest::RunProperty(11, 50, [](proptest::Case& c) {
    const uint64_t lo = c.Range("lo", 5, 10);
    return lo >= 5 && lo <= 10 ? std::string() : std::string("out of range");
  });
  EXPECT_TRUE(outcome.ok);
  EXPECT_TRUE(outcome.message.empty());
}

}  // namespace
}  // namespace peercache
