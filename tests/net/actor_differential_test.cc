// Differential check of the message-driven runtime: the same lookup issued
// as a chain of wire messages over the bus must reproduce the direct
// LookupInto call byte for byte — every RouteResult field (latency compared
// as a bit pattern), every trace hop, every resilience counter — on all
// three overlays, with and without fault plans and latency models, at
// thread pool sizes 1 and 4. Both paths run the same routing-kernel visit,
// so this pins the wire round trip of the cursor and route state.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "chord/chord_network.h"
#include "common/fault.h"
#include "common/latency.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "kademlia/kademlia_network.h"
#include "net/actor_node.h"
#include "net/bus.h"
#include "net/wire.h"
#include "pastry/pastry_network.h"
#include "test_util.h"

namespace peercache::net {
namespace {

using proptest::Case;
using proptest::RunProperty;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

std::string DiffResults(const overlay::RouteResult& direct,
                        const overlay::RouteResult& bus) {
  if (direct.success != bus.success) return "success differs";
  if (direct.destination != bus.destination) return "destination differs";
  if (direct.hops != bus.hops) return "hops differ";
  if (direct.aux_hops != bus.aux_hops) return "aux_hops differ";
  if (!BitEqual(direct.latency_ms, bus.latency_ms)) {
    return "latency bit patterns differ";
  }
  if (direct.path != bus.path) return "paths differ";
  if (direct.retries != bus.retries) return "retries differ";
  if (direct.dropped_forwards != bus.dropped_forwards) {
    return "dropped_forwards differ";
  }
  if (direct.failstop_skips != bus.failstop_skips) {
    return "failstop_skips differ";
  }
  if (direct.stale_forwards != bus.stale_forwards) {
    return "stale_forwards differ";
  }
  if (direct.budget_exhausted != bus.budget_exhausted) {
    return "budget_exhausted differs";
  }
  if (direct.dead_evictions != bus.dead_evictions) {
    return "dead_evictions differ";
  }
  return "";
}

std::string DiffTraces(const RouteTrace& direct, const RouteTrace& bus) {
  if (direct.origin != bus.origin || direct.key != bus.key) {
    return "trace header differs";
  }
  if (direct.destination != bus.destination) {
    return "trace destination differs";
  }
  if (direct.success != bus.success) return "trace success differs";
  if (direct.hops != bus.hops) return "trace hops differ";
  if (!BitEqual(direct.latency_ms, bus.latency_ms)) {
    return "trace latency differs";
  }
  if (direct.path.size() != bus.path.size()) {
    return "trace path length differs";
  }
  for (size_t i = 0; i < direct.path.size(); ++i) {
    const HopRecord& a = direct.path[i];
    const HopRecord& b = bus.path[i];
    if (a.from != b.from || a.to != b.to || a.kind != b.kind ||
        a.remaining != b.remaining || a.dropped != b.dropped ||
        a.retried != b.retried || !BitEqual(a.latency_ms, b.latency_ms)) {
      return "trace hop " + std::to_string(i) + " differs";
    }
  }
  return "";
}

/// Issues `lookups` over the bus against `net` and checks every DONE
/// against the direct LookupInto call. Returns "" when byte-identical.
template <typename Net>
std::string CheckDifferential(
    const Net& net, const std::vector<std::pair<uint64_t, uint64_t>>& lookups,
    const fault::FaultPlan* faults, const latency::LatencyModel* latency,
    bool traced, int threads) {
  typename ActorHost<Net>::Config config;
  config.traced = traced;
  config.faults = faults;
  config.latency = latency;
  ActorHost<Net> host(net, config);

  ThreadPool pool(threads);
  BusConfig bus_config;
  bus_config.seed = 99;
  MessageBus bus(bus_config, &pool);
  for (size_t i = 0; i < lookups.size(); ++i) {
    bus.Post(kClientAddress, lookups[i].first, 0.0,
             host.MakeLookupReq(i, lookups[i].first, lookups[i].second));
  }
  std::vector<LookupDone> dones(lookups.size());
  std::vector<bool> seen(lookups.size(), false);
  std::string bus_error;
  bus.Run([&](const Envelope& env, std::vector<Outbound>& out) {
    if (env.dst != kClientAddress) {
      host.HandleMessage(env, out);
      return;
    }
    auto decoded = Decode(std::span<const uint8_t>(env.payload));
    if (!decoded.ok() || !std::holds_alternative<LookupDone>(decoded.value())) {
      bus_error = "client received a non-DONE frame";
      return;
    }
    const LookupDone& done = std::get<LookupDone>(decoded.value());
    if (done.lookup_id >= dones.size() || seen[done.lookup_id]) {
      bus_error = "bad or duplicate lookup_id at the client";
      return;
    }
    dones[done.lookup_id] = done;
    seen[done.lookup_id] = true;
  });
  if (!bus_error.empty()) return bus_error;

  for (size_t i = 0; i < lookups.size(); ++i) {
    if (!seen[i]) return "lookup " + std::to_string(i) + " never completed";
    overlay::RouteResult direct;
    RouteTrace direct_trace;
    const Status direct_status = net.LookupInto(
        lookups[i].first, lookups[i].second, direct,
        {traced ? &direct_trace : nullptr, faults, latency});
    overlay::RouteResult via_bus;
    RouteTrace bus_trace;
    const Status bus_status =
        UnpackDone(dones[i], via_bus, traced ? &bus_trace : nullptr);
    if (direct_status.code() != bus_status.code()) {
      return "status differs: direct=" + direct_status.ToString() +
             " bus=" + bus_status.ToString();
    }
    if (!direct_status.ok()) continue;
    if (std::string d = DiffResults(direct, via_bus); !d.empty()) {
      return "lookup " + std::to_string(i) + ": " + d;
    }
    if (traced) {
      if (std::string d = DiffTraces(direct_trace, bus_trace); !d.empty()) {
        return "lookup " + std::to_string(i) + ": " + d;
      }
    }
  }
  return "";
}

/// Builds an overlay with churn-induced staleness and auxiliary entries —
/// the state that exercises every routing branch.
template <typename Net, typename Params>
Net BuildNetwork(Case& c, Params params, std::vector<uint64_t>* live) {
  params.bits = 16;
  const uint64_t net_seed = c.Range("net_seed", 1, 1u << 20);
  // Pastry's constructor additionally takes a stabilization-probe seed.
  auto make = [&] {
    if constexpr (std::is_constructible_v<Net, const Params&, uint64_t>) {
      return Net(params, net_seed);
    } else {
      return Net(params);
    }
  };
  Net net = make();
  Rng rng(net_seed);
  const size_t n = c.Range("n", 8, 64);
  std::vector<uint64_t> ids = rng.SampleDistinct(uint64_t{1} << 16, n);
  EXPECT_TRUE(net.BulkAdd(ids).ok());
  net.StabilizeAll();
  // Install auxiliaries drawn from the membership on some nodes.
  for (uint64_t id : ids) {
    if (rng.Bernoulli(0.5)) {
      std::vector<uint64_t> aux;
      const size_t k = 1 + rng.UniformU64(4);
      for (size_t j = 0; j < k; ++j) {
        aux.push_back(ids[rng.UniformU64(ids.size())]);
      }
      EXPECT_TRUE(net.SetAuxiliaries(id, aux).ok());
    }
  }
  // Crash a fraction WITHOUT restabilizing: tables go stale, which is what
  // gives the fault plan's stale gate something to bite on.
  for (uint64_t id : ids) {
    if (net.live_count() > 4 && rng.Bernoulli(0.2)) {
      EXPECT_TRUE(net.RemoveNode(id).ok());
    } else {
      live->push_back(id);
    }
  }
  return net;
}

template <typename Net, typename Params>
std::string RunOverlayProperty(Case& c, Params params) {
  std::vector<uint64_t> live;
  const Net net = BuildNetwork<Net, Params>(c, params, &live);
  Rng rng(c.Range("workload_seed", 1, 1u << 20));
  std::vector<std::pair<uint64_t, uint64_t>> lookups;
  const size_t n_lookups = c.Range("n_lookups", 1, 12);
  for (size_t i = 0; i < n_lookups; ++i) {
    lookups.emplace_back(live[rng.UniformU64(live.size())],
                         rng.UniformU64(uint64_t{1} << 16));
  }

  const bool faulted = c.Bool("faulted");
  fault::FaultConfig fault_config;
  fault_config.drop_prob = faulted ? 0.15 : 0.0;
  fault_config.fail_prob = faulted ? 0.05 : 0.0;
  fault_config.stale_prob = faulted ? 0.5 : 0.0;
  fault_config.seed = c.Range("fault_seed", 1, 1000);
  fault_config.max_retries = 4;
  const fault::FaultPlan faults(fault_config);

  const bool timed = c.Bool("timed");
  latency::LatencyConfig latency_config;
  latency_config.base_rtt_ms = timed ? 12.0 : 0.0;
  latency_config.coord_scale_ms = timed ? 40.0 : 0.0;
  latency_config.jitter_ms = timed ? 3.0 : 0.0;
  latency_config.timeout_ms = timed ? 50.0 : 0.0;
  latency_config.seed = c.Range("latency_seed", 1, 1000);
  const latency::LatencyModel latency(latency_config);

  const bool traced = c.Bool("traced");
  for (int threads : {1, 4}) {
    std::string diff = CheckDifferential(
        net, lookups, faulted ? &faults : nullptr, timed ? &latency : nullptr,
        traced, threads);
    if (!diff.empty()) {
      return "threads=" + std::to_string(threads) + ": " + diff;
    }
  }
  return "";
}

TEST(ActorDifferentialTest, ChordMessagePathEqualsDirectPath) {
  auto outcome = RunProperty(31, 40, [](Case& c) {
    return RunOverlayProperty<chord::ChordNetwork>(c, chord::ChordParams{});
  });
  EXPECT_TRUE(outcome.ok) << outcome.message << "\n  " << outcome.counterexample;
}

TEST(ActorDifferentialTest, PastryMessagePathEqualsDirectPath) {
  auto outcome = RunProperty(32, 40, [](Case& c) {
    return RunOverlayProperty<pastry::PastryNetwork>(c, pastry::PastryParams{});
  });
  EXPECT_TRUE(outcome.ok) << outcome.message << "\n  " << outcome.counterexample;
}

TEST(ActorDifferentialTest, KademliaMessagePathEqualsDirectPath) {
  auto outcome = RunProperty(33, 40, [](Case& c) {
    return RunOverlayProperty<kademlia::KademliaNetwork>(
        c, kademlia::KademliaParams{});
  });
  EXPECT_TRUE(outcome.ok) << outcome.message << "\n  " << outcome.counterexample;
}

TEST(ActorDifferentialTest, LookupAtDeadOriginReportsUnavailable) {
  chord::ChordParams params;
  params.bits = 16;
  chord::ChordNetwork net(params);
  ASSERT_TRUE(net.BulkAdd({100, 200, 300}).ok());
  net.StabilizeAll();
  ASSERT_TRUE(net.RemoveNode(200).ok());
  std::string diff =
      CheckDifferential(net, {{200, 5000}}, nullptr, nullptr, false, 1);
  EXPECT_EQ(diff, "") << diff;
}

TEST(ActorDifferentialTest, ControlPlaneDrivesChurn) {
  chord::ChordParams params;
  params.bits = 16;
  chord::ChordNetwork net(params);
  using Host = ActorHost<chord::ChordNetwork>;
  ASSERT_TRUE(Host::ApplyControl(net, Join{100}).ok());
  ASSERT_TRUE(Host::ApplyControl(net, Join{200}).ok());
  ASSERT_TRUE(Host::ApplyControl(net, Join{300}).ok());
  ASSERT_TRUE(Host::ApplyControl(net, Stabilize{kAllNodes}).ok());
  EXPECT_EQ(net.live_count(), 3u);
  ASSERT_TRUE(Host::ApplyControl(net, Leave{200, 0}).ok());
  EXPECT_FALSE(net.IsAlive(200));
  ASSERT_TRUE(Host::ApplyControl(net, Join{200}).ok());  // rejoin
  EXPECT_TRUE(net.IsAlive(200));
  ASSERT_TRUE(Host::ApplyControl(net, Stabilize{200}).ok());
}

}  // namespace
}  // namespace peercache::net
