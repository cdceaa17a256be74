// End-to-end tests of the optimal policy's incremental churn maintenance:
// persistent per-node maintainers must survive an entire churned run with
// the full-rebuild audit enabled on every round, stay thread-count
// invariant, and record every round's deltas; the other policies run no
// maintainers, and heterogeneous budgets are rejected under churn.

#include <gtest/gtest.h>

#include <cstdint>

#include "experiments/generic_experiment.h"

namespace peercache::experiments {
namespace {

ExperimentConfig MaintConfig(uint64_t seed) {
  ExperimentConfig cfg;
  cfg.n_nodes = 32;
  cfg.k = 5;
  cfg.alpha = 1.2;
  cfg.n_items = 128;
  cfg.seed = seed;
  cfg.threads = 1;
  cfg.maintenance_audit_period = 1;  // audit every recompute round
  return cfg;
}

ChurnConfig ShortChurn() {
  ChurnConfig churn;
  churn.warmup_s = 400;
  churn.measure_s = 400;
  return churn;
}

/// Sum of one per-round tally over every maintenance round of the run.
uint64_t Total(const RunResult& result,
               uint64_t MaintenanceRoundStats::*field) {
  uint64_t total = 0;
  for (const MaintenanceRoundStats& r : result.maintenance_rounds) {
    total += r.*field;
  }
  return total;
}

TEST(Maintenance, ChordChurnSurvivesAuditOnEveryRound) {
  auto result =
      RunChurn<ChordPolicy>(MaintConfig(0x51), ShortChurn(),
                            SelectorKind::kOptimal);
  ASSERT_TRUE(result.ok()) << result.status();
  // 800 s at one recomputation per 62.5 s: every round ran and audited.
  EXPECT_GE(result->maintenance_rounds.size(), 10u);
  EXPECT_GT(Total(*result, &MaintenanceRoundStats::audited_nodes), 0u);
  for (const MaintenanceRoundStats& r : result->maintenance_rounds) {
    EXPECT_GT(r.live_nodes, 0u);
    EXPECT_EQ(r.audited_nodes, r.live_nodes)
        << "audit period 1 must cross-check every live node every round";
  }
  // The first round meets every live node for the first time.
  EXPECT_EQ(result->maintenance_rounds.front().bootstrapped,
            result->maintenance_rounds.front().live_nodes);
  EXPECT_GT(result->queries, 0u);
  EXPECT_EQ(result->total_route_hops,
            static_cast<uint64_t>(result->hop_histogram.sum()));
  EXPECT_GT(Total(*result, &MaintenanceRoundStats::freq_deltas) +
                Total(*result, &MaintenanceRoundStats::peer_joins),
            0u)
      << "a churned run must have observed some frequency traffic";
}

TEST(Maintenance, PastryChurnSurvivesAuditOnEveryRound) {
  auto result = RunChurn<PastryPolicy>(MaintConfig(0x52), ShortChurn(),
                                       SelectorKind::kOptimal);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->maintenance_rounds.size(), 10u);
  for (const MaintenanceRoundStats& r : result->maintenance_rounds) {
    EXPECT_EQ(r.audited_nodes, r.live_nodes);
  }
  EXPECT_GT(Total(*result, &MaintenanceRoundStats::peer_leaves) +
                Total(*result, &MaintenanceRoundStats::core_deltas),
            0u)
      << "churn must surface membership deltas to the maintainers";
}

TEST(Maintenance, ObservedModeIsThreadCountInvariant) {
  ExperimentConfig cfg = MaintConfig(0x53);
  cfg.maintenance_audit_period = 4;
  cfg.threads = 1;
  auto serial = RunChurn<ChordPolicy>(cfg, ShortChurn(),
                                      SelectorKind::kOptimal);
  cfg.threads = 4;
  auto parallel = RunChurn<ChordPolicy>(cfg, ShortChurn(),
                                        SelectorKind::kOptimal);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(serial->queries, parallel->queries);
  EXPECT_DOUBLE_EQ(serial->avg_hops, parallel->avg_hops);
  EXPECT_EQ(serial->node_auxiliaries, parallel->node_auxiliaries);
  // Every deterministic maintenance field matches round by round; only the
  // wall clock may differ.
  ASSERT_EQ(serial->maintenance_rounds.size(),
            parallel->maintenance_rounds.size());
  for (size_t i = 0; i < serial->maintenance_rounds.size(); ++i) {
    const MaintenanceRoundStats& a = serial->maintenance_rounds[i];
    const MaintenanceRoundStats& b = parallel->maintenance_rounds[i];
    EXPECT_DOUBLE_EQ(a.sim_time_s, b.sim_time_s) << "round " << i;
    EXPECT_EQ(a.live_nodes, b.live_nodes) << "round " << i;
    EXPECT_EQ(a.bootstrapped, b.bootstrapped) << "round " << i;
    EXPECT_EQ(a.peer_joins, b.peer_joins) << "round " << i;
    EXPECT_EQ(a.peer_leaves, b.peer_leaves) << "round " << i;
    EXPECT_EQ(a.freq_deltas, b.freq_deltas) << "round " << i;
    EXPECT_EQ(a.core_deltas, b.core_deltas) << "round " << i;
    EXPECT_EQ(a.audited_nodes, b.audited_nodes) << "round " << i;
  }
}

TEST(Maintenance, AuditPeriodGatesWhichRoundsAreChecked) {
  ExperimentConfig cfg = MaintConfig(0x54);
  cfg.maintenance_audit_period = 4;
  auto result = RunChurn<ChordPolicy>(cfg, ShortChurn(),
                                      SelectorKind::kOptimal);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GE(result->maintenance_rounds.size(), 5u);
  for (size_t i = 0; i < result->maintenance_rounds.size(); ++i) {
    const MaintenanceRoundStats& r = result->maintenance_rounds[i];
    if (i % 4 == 0) {
      EXPECT_EQ(r.audited_nodes, r.live_nodes) << "round " << i;
    } else {
      EXPECT_EQ(r.audited_nodes, 0u) << "round " << i;
    }
  }

  cfg.maintenance_audit_period = 0;
  auto unaudited = RunChurn<ChordPolicy>(cfg, ShortChurn(),
                                         SelectorKind::kOptimal);
  ASSERT_TRUE(unaudited.ok());
  EXPECT_EQ(Total(*unaudited, &MaintenanceRoundStats::audited_nodes), 0u);
  // Audits only check invariants; they must not change the run.
  EXPECT_DOUBLE_EQ(result->avg_hops, unaudited->avg_hops);
  EXPECT_EQ(result->node_auxiliaries, unaudited->node_auxiliaries);
}

TEST(Maintenance, NonOptimalPoliciesRunNoMaintainers) {
  ExperimentConfig cfg = MaintConfig(0x56);
  auto oblivious = RunChurn<ChordPolicy>(cfg, ShortChurn(),
                                         SelectorKind::kOblivious);
  ASSERT_TRUE(oblivious.ok());
  EXPECT_TRUE(oblivious->maintenance_rounds.empty());
  auto none = RunChurn<ChordPolicy>(cfg, ShortChurn(), SelectorKind::kNone);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->maintenance_rounds.empty());
}

// The maintainers keep uniform k, so heterogeneous budgets under churn
// would hand the oblivious and optimal arms unequal budgets: every policy
// refuses them rather than run an unequal comparison.
TEST(Maintenance, ChurnRejectsHeterogeneousBudgets) {
  ExperimentConfig cfg = MaintConfig(0x57);
  cfg.budget_gamma = 1.5;
  for (SelectorKind selector : {SelectorKind::kNone, SelectorKind::kOblivious,
                                SelectorKind::kOptimal}) {
    auto result = RunChurn<ChordPolicy>(cfg, ShortChurn(), selector);
    ASSERT_FALSE(result.ok()) << SelectorKindName(selector);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << SelectorKindName(selector);
  }
}

}  // namespace
}  // namespace peercache::experiments
