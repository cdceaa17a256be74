// Edge-case regressions and acceptance checks for the fault-injection
// layer (docs/RESILIENCE.md):
//  * FaultPlan predicate determinism and probability bounds,
//  * lookups originated at a just-departed node,
//  * single-node overlays, directly and through the stable engine,
//  * a zero auxiliary budget through the full churn path under faults,
//  * the headline resilience claim — at a 20% per-attempt drop rate the
//    retry policy keeps delivery at >= 99% while the no-retry baseline
//    degrades measurably,
//  * thread-count invariance of the resilience telemetry,
//  * dead-entry eviction reports healing the holder's auxiliary list.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chord/chord_network.h"
#include "common/bits.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/status.h"
#include "experiments/generic_experiment.h"
#include "pastry/pastry_network.h"

namespace peercache {
namespace {

using experiments::ChordPolicy;
using experiments::ChurnConfig;
using experiments::ExperimentConfig;
using experiments::PastryPolicy;
using experiments::RunResult;
using experiments::SelectorKind;

TEST(FaultPlan, ProbabilityBoundsAndDeterminism) {
  fault::FaultConfig cfg;
  cfg.drop_prob = 0.0;
  cfg.fail_prob = 0.0;
  cfg.stale_prob = 0.0;
  cfg.seed = 42;
  const fault::FaultPlan never(cfg);
  cfg.drop_prob = 1.0;
  cfg.fail_prob = 1.0;
  cfg.stale_prob = 1.0;
  const fault::FaultPlan always(cfg);
  cfg.drop_prob = 0.3;
  const fault::FaultPlan sometimes(cfg);

  int fired = 0;
  for (uint64_t i = 0; i < 2000; ++i) {
    const uint64_t key = i * 7919, from = i * 104729, to = i * 1299709;
    EXPECT_FALSE(never.DropForward(key, from, to, 0));
    EXPECT_FALSE(never.FailStopped(key, from));
    EXPECT_FALSE(never.StaleBelievedAlive(key, from, to));
    EXPECT_TRUE(always.DropForward(key, from, to, 0));
    EXPECT_TRUE(always.FailStopped(key, from));
    EXPECT_TRUE(always.StaleBelievedAlive(key, from, to));
    const bool d = sometimes.DropForward(key, from, to, 3);
    EXPECT_EQ(d, sometimes.DropForward(key, from, to, 3));  // stateless
    if (d) ++fired;
  }
  // 2000 Bernoulli(0.3) draws: expect ~600, allow a generous band.
  EXPECT_GT(fired, 450);
  EXPECT_LT(fired, 750);

  // The attempt counter decorrelates retransmissions: a dropped message is
  // not deterministically dropped forever.
  int differs = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    if (sometimes.DropForward(i, 1, 2, 0) != sometimes.DropForward(i, 1, 2, 1)) {
      ++differs;
    }
  }
  EXPECT_GT(differs, 0);
}

template <typename Net>
void ExpectOriginDepartedUnavailable(Net& net, uint64_t origin,
                                     uint64_t key) {
  ASSERT_TRUE(net.RemoveNode(origin).ok());
  overlay::RouteResult route;
  EXPECT_EQ(net.LookupInto(origin, key, route).code(),
            StatusCode::kUnavailable);
  fault::FaultConfig cfg;
  cfg.drop_prob = 0.5;
  cfg.seed = 3;
  const fault::FaultPlan plan(cfg);
  EXPECT_EQ(net.LookupInto(origin, key, route, {.faults = &plan}).code(),
            StatusCode::kUnavailable);
}

TEST(FaultEdgeCases, LookupFromJustDepartedNodeIsUnavailable) {
  Rng rng(5);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 16);
  chord::ChordParams cp;
  cp.bits = 16;
  chord::ChordNetwork cnet(cp);
  for (uint64_t id : ids) ASSERT_TRUE(cnet.AddNode(id).ok());
  cnet.StabilizeAll();
  ExpectOriginDepartedUnavailable(cnet, ids[0], ids[5]);

  pastry::PastryParams pp;
  pp.bits = 16;
  pastry::PastryNetwork pnet(pp, 5);
  for (uint64_t id : ids) ASSERT_TRUE(pnet.AddNode(id).ok());
  pnet.StabilizeAll();
  ExpectOriginDepartedUnavailable(pnet, ids[0], ids[5]);
}

template <typename Net>
void ExpectSingleNodeSelfDelivery(Net& net, uint64_t self) {
  fault::FaultConfig cfg;
  cfg.drop_prob = 0.9;  // no forwards exist, so nothing can fail
  cfg.fail_prob = 0.9;
  cfg.stale_prob = 1.0;
  cfg.seed = 11;
  const fault::FaultPlan plan(cfg);
  for (const fault::FaultPlan* p : {(const fault::FaultPlan*)nullptr, &plan}) {
    for (uint64_t key : {uint64_t{0}, self, uint64_t{0xFFFF}}) {
      overlay::RouteResult route;
      ASSERT_TRUE(net.LookupInto(self, key, route, {.faults = p}).ok());
      EXPECT_TRUE(route.success);
      EXPECT_EQ(route.destination, self);
      EXPECT_EQ(route.hops, 0);
      EXPECT_EQ(route.retries, 0);
      EXPECT_TRUE(route.path.empty());
    }
  }
}

TEST(FaultEdgeCases, SingleNodeNetworkDeliversLocally) {
  chord::ChordParams cp;
  cp.bits = 16;
  chord::ChordNetwork cnet(cp);
  ASSERT_TRUE(cnet.AddNode(1234).ok());
  cnet.StabilizeAll();
  ExpectSingleNodeSelfDelivery(cnet, 1234);

  pastry::PastryParams pp;
  pp.bits = 16;
  pastry::PastryNetwork pnet(pp, 7);
  ASSERT_TRUE(pnet.AddNode(1234).ok());
  pnet.StabilizeAll();
  ExpectSingleNodeSelfDelivery(pnet, 1234);
}

ExperimentConfig TinyConfig() {
  ExperimentConfig cfg;
  cfg.bits = 16;
  cfg.n_nodes = 1;
  cfg.k = 4;
  cfg.n_items = 64;
  cfg.warmup_queries_per_node = 20;
  cfg.measure_queries_per_node = 20;
  cfg.threads = 1;
  cfg.seed = 9;
  return cfg;
}

TEST(FaultEdgeCases, SingleNodeStableRunThroughEngine) {
  ExperimentConfig cfg = TinyConfig();
  cfg.faults.drop_prob = 0.5;
  cfg.faults.seed = 21;
  auto chord = experiments::RunStable<ChordPolicy>(cfg, SelectorKind::kOptimal);
  ASSERT_TRUE(chord.ok()) << chord.status().ToString();
  EXPECT_EQ(chord->resilience.lookups, chord->queries);
  EXPECT_EQ(chord->resilience.delivered, chord->resilience.lookups);
  EXPECT_EQ(chord->resilience.retries, 0u);  // self-delivery never forwards
  auto pastry =
      experiments::RunStable<PastryPolicy>(cfg, SelectorKind::kOptimal);
  ASSERT_TRUE(pastry.ok()) << pastry.status().ToString();
  EXPECT_EQ(pastry->resilience.delivered, pastry->resilience.lookups);
}

TEST(FaultEdgeCases, ZeroAuxiliaryBudgetThroughChurnPathUnderFaults) {
  ExperimentConfig cfg = TinyConfig();
  cfg.n_nodes = 48;
  cfg.k = 0;  // no auxiliary budget: selection must be a no-op, not a crash
  cfg.faults.drop_prob = 0.1;
  cfg.faults.stale_prob = 0.5;
  cfg.faults.seed = 33;
  ChurnConfig churn;
  churn.mean_lifetime_s = 200.0;
  churn.warmup_s = 200.0;
  churn.measure_s = 200.0;
  for (int pass = 0; pass < 2; ++pass) {
    auto run = pass == 0 ? experiments::RunChurn<ChordPolicy>(
                               cfg, churn, SelectorKind::kOptimal)
                         : experiments::RunChurn<PastryPolicy>(
                               cfg, churn, SelectorKind::kOptimal);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->resilience.lookups, run->queries);
    EXPECT_GT(run->resilience.lookups, 0u);
    EXPECT_LE(run->resilience.delivered, run->resilience.lookups);
    EXPECT_EQ(run->aux_route_hops, 0u) << "k=0 must never route through aux";
  }
}

ExperimentConfig GateConfig(int threads) {
  ExperimentConfig cfg;
  cfg.bits = 32;
  cfg.n_nodes = 256;
  cfg.k = 8;
  cfg.n_items = 256;
  cfg.warmup_queries_per_node = 40;
  cfg.measure_queries_per_node = 40;
  cfg.threads = threads;
  cfg.seed = 4;
  cfg.faults.drop_prob = 0.2;
  cfg.faults.seed = 17;
  return cfg;
}

TEST(FaultResilience, RetriesKeepDeliveryAboveNinetyNinePercent) {
  for (int pass = 0; pass < 2; ++pass) {
    ExperimentConfig with = GateConfig(1);
    auto retry = pass == 0 ? experiments::RunStable<ChordPolicy>(
                                 with, SelectorKind::kOptimal)
                           : experiments::RunStable<PastryPolicy>(
                                 with, SelectorKind::kOptimal);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    with.faults.retry = false;
    auto baseline = pass == 0 ? experiments::RunStable<ChordPolicy>(
                                    with, SelectorKind::kOptimal)
                              : experiments::RunStable<PastryPolicy>(
                                    with, SelectorKind::kOptimal);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const double with_rate = retry->resilience.SuccessRate();
    const double without_rate = baseline->resilience.SuccessRate();
    EXPECT_GE(with_rate, 0.99) << (pass == 0 ? "chord" : "pastry");
    EXPECT_GT(with_rate, without_rate + 0.05)
        << (pass == 0 ? "chord" : "pastry")
        << ": the no-retry baseline should be measurably degraded";
    EXPECT_GT(retry->resilience.retries, 0u);
  }
}

TEST(FaultResilience, ResilienceTelemetryIsThreadCountInvariant) {
  auto one = experiments::RunStable<ChordPolicy>(GateConfig(1),
                                                 SelectorKind::kOptimal);
  auto four = experiments::RunStable<ChordPolicy>(GateConfig(4),
                                                  SelectorKind::kOptimal);
  ASSERT_TRUE(one.ok() && four.ok());
  EXPECT_EQ(one->avg_hops, four->avg_hops);
  EXPECT_EQ(one->resilience.lookups, four->resilience.lookups);
  EXPECT_EQ(one->resilience.delivered, four->resilience.delivered);
  EXPECT_EQ(one->resilience.retried_lookups, four->resilience.retried_lookups);
  EXPECT_EQ(one->resilience.retries, four->resilience.retries);
  EXPECT_EQ(one->resilience.dropped_forwards, four->resilience.dropped_forwards);
  EXPECT_EQ(one->resilience.failstop_skips, four->resilience.failstop_skips);
  EXPECT_EQ(one->resilience.stale_forwards, four->resilience.stale_forwards);
  EXPECT_EQ(one->resilience.budget_exhausted, four->resilience.budget_exhausted);
  EXPECT_EQ(one->resilience.dead_entry_evictions,
            four->resilience.dead_entry_evictions);
}

TEST(FaultResilience, NoRetryAbortsOnFirstFailureAndFullDropExhaustsBudget) {
  Rng rng(8);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 32);
  chord::ChordParams cp;
  cp.bits = 16;
  chord::ChordNetwork net(cp);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();
  // A key owned by someone else so the route must forward at least once.
  const uint64_t origin = ids[0];
  uint64_t key = 0;
  for (int t = 0; t < 64; ++t) {
    key = rng.NextU64() & LowBitMask(16);
    if (net.ResponsibleNode(key).value() != origin) break;
  }
  ASSERT_NE(net.ResponsibleNode(key).value(), origin);

  fault::FaultConfig cfg;
  cfg.drop_prob = 1.0;
  cfg.seed = 2;
  cfg.retry = false;
  overlay::RouteResult route;
  const fault::FaultPlan aborting(cfg);
  ASSERT_TRUE(net.LookupInto(origin, key, route, {.faults = &aborting}).ok());
  EXPECT_FALSE(route.success);
  EXPECT_EQ(route.retries, 1);
  EXPECT_EQ(route.hops, 0);
  EXPECT_TRUE(route.path.empty());

  cfg.retry = true;  // every attempt still drops: the budget must run out
  const fault::FaultPlan exhausting(cfg);
  ASSERT_TRUE(net.LookupInto(origin, key, route, {.faults = &exhausting}).ok());
  EXPECT_FALSE(route.success);
  EXPECT_TRUE(route.budget_exhausted);
  EXPECT_EQ(route.retries, cfg.max_retries + 1);
}

TEST(FaultResilience, DeadEvictionReportHealsTheAuxiliaryEntry) {
  Rng rng(12);
  auto ids = rng.SampleDistinct(uint64_t{1} << 16, 40);
  chord::ChordParams cp;
  cp.bits = 16;
  chord::ChordNetwork net(cp);
  for (uint64_t id : ids) ASSERT_TRUE(net.AddNode(id).ok());
  net.StabilizeAll();

  // A victim that is an auxiliary of the origin but not one of its core
  // entries, so evicting the auxiliary removes the origin's only path to it.
  const uint64_t origin = ids[0];
  const auto core = net.CoreNeighborIds(origin);
  uint64_t victim = 0;
  bool found = false;
  for (uint64_t id : ids) {
    if (id != origin &&
        std::find(core.begin(), core.end(), id) == core.end()) {
      victim = id;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "network too small: every node is a core neighbor";
  ASSERT_TRUE(net.SetAuxiliaries(origin, {victim}).ok());
  ASSERT_TRUE(net.RemoveNode(victim).ok());

  fault::FaultConfig cfg;
  cfg.stale_prob = 1.0;  // the origin still believes the dead entry alive
  cfg.seed = 6;
  const fault::FaultPlan plan(cfg);
  overlay::RouteResult route;
  // Key = victim's id: the dead auxiliary is the closest entry and gets
  // probed first.
  ASSERT_TRUE(net.LookupInto(origin, victim, route, {.faults = &plan}).ok());
  const std::pair<uint64_t, uint64_t> pair{origin, victim};
  ASSERT_NE(std::find(route.dead_evictions.begin(),
                      route.dead_evictions.end(), pair),
            route.dead_evictions.end())
      << "the stale forward must report the dead auxiliary for eviction";

  // Apply the eviction the way the churn engine does, then replay: the
  // healed table must not probe the dead entry again.
  net.EraseAuxiliary(origin, victim);
  ASSERT_TRUE(net.LookupInto(origin, victim, route, {.faults = &plan}).ok());
  EXPECT_EQ(std::find(route.dead_evictions.begin(),
                      route.dead_evictions.end(), pair),
            route.dead_evictions.end());
}

}  // namespace
}  // namespace peercache
