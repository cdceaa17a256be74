// Warmup against an oracle: ParallelWarmup resolves every item once and
// has each node record the owner of each item it draws. Its frequency
// tables must equal those of the plainest possible loop — one query at a
// time, SampleKey -> ResponsibleNode -> Record — in every table mode
// (exact, bounded Space-Saving, count-min sketch; the last two are
// order-sensitive), under every drift model, at threads 1 and 4, for a
// prefix of the nodes and for all of them. Also pinned: the edge cases
// (nothing to warm, empty overlay) and the rule that arms whose selector
// never reads frequencies leave every table empty.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "experiments/generic_experiment.h"
#include "experiments/overlay_policy.h"
#include "experiments/parallel_engine.h"
#include "workload/drift.h"

namespace peercache::experiments {
namespace {

enum class TableMode { kExact, kBounded, kSketch };

const char* TableModeName(TableMode mode) {
  switch (mode) {
    case TableMode::kExact:
      return "exact";
    case TableMode::kBounded:
      return "bounded";
    case TableMode::kSketch:
      return "sketch";
  }
  return "?";
}

ExperimentConfig OracleConfig(TableMode mode, workload::DriftKind drift) {
  ExperimentConfig cfg;
  cfg.n_nodes = 160;
  cfg.n_items = 500;
  cfg.alpha = 0.9;
  cfg.n_popularity_lists = 3;
  cfg.warmup_queries_per_node = 60;
  cfg.seed = 0x3a7;
  // Small summaries, so the bounded and sketch tables evict and the
  // outcome depends on Record order.
  if (mode == TableMode::kBounded) cfg.frequency_capacity = 6;
  if (mode == TableMode::kSketch) {
    cfg.freq_sketch.top_capacity = 6;
    cfg.freq_sketch.cm_width = 16;
    cfg.freq_sketch.cm_depth = 2;
  }
  cfg.drift.kind = drift;
  cfg.drift.period = drift == workload::DriftKind::kNone ? 0 : 15;
  return cfg;
}

/// The reference: each of `ids` handles its queries one at a time.
template <typename Network>
void ReferenceWarmup(Network& net, const std::vector<uint64_t>& ids,
                     workload::QueryWorkload& queries, uint64_t seed,
                     int queries_per_node, const workload::DriftModel* drift,
                     int64_t drift_base) {
  for (uint64_t origin : ids) {
    Rng rng(SplitSeed(seed, origin));
    const int list = queries.ListOf(origin);
    for (int q = 0; q < queries_per_node; ++q) {
      const uint64_t key =
          drift != nullptr ? drift->SampleKey(list, drift_base + q, rng)
                           : queries.SampleKey(origin, rng);
      const Result<uint64_t> owner = net.ResponsibleNode(key);
      ASSERT_TRUE(owner.ok()) << owner.status().ToString();
      if (owner.value() != origin) {
        net.GetNode(origin)->frequencies.Record(owner.value());
      }
    }
  }
}

template <typename Network>
void ExpectSameTables(const Network& got, const Network& want,
                      const std::vector<uint64_t>& ids,
                      const std::string& where) {
  for (uint64_t id : ids) {
    const auto& g = got.GetNode(id)->frequencies;
    const auto& w = want.GetNode(id)->frequencies;
    ASSERT_EQ(g.total(), w.total()) << where << " node " << id;
    ASSERT_EQ(g.distinct(), w.distinct()) << where << " node " << id;
    const std::vector<auxsel::PeerFreq> gs = g.Snapshot(id);
    const std::vector<auxsel::PeerFreq> ws = w.Snapshot(id);
    ASSERT_EQ(gs.size(), ws.size()) << where << " node " << id;
    for (size_t i = 0; i < gs.size(); ++i) {
      ASSERT_EQ(gs[i].id, ws[i].id) << where << " node " << id << " @" << i;
      ASSERT_EQ(gs[i].frequency, ws[i].frequency)
          << where << " node " << id << " @" << i;
      ASSERT_EQ(gs[i].delay_bound, ws[i].delay_bound)
          << where << " node " << id << " @" << i;
    }
  }
}

template <typename Policy>
void CheckAgainstOracle() {
  using workload::DriftKind;
  for (TableMode mode :
       {TableMode::kExact, TableMode::kBounded, TableMode::kSketch}) {
    for (DriftKind drift :
         {DriftKind::kNone, DriftKind::kRankShuffle, DriftKind::kFlashCrowd}) {
      const ExperimentConfig cfg = OracleConfig(mode, drift);
      const SeedPlan seeds = Policy::MakeSeedPlan(cfg.seed);
      const std::vector<uint64_t> ids = SampleNodeIds(cfg, seeds.ids);
      WorkloadBundle workload(cfg, seeds, ids);
      const workload::DriftModel* model = workload.drift();
      // A nonzero base under drift checks the timeline offset too.
      const int64_t base = model != nullptr ? 7 : 0;
      for (int threads : {1, 4}) {
        for (size_t warmed : {ids.size() / 3, ids.size()}) {
          const std::string where =
              std::string(Policy::kName) + " " + TableModeName(mode) +
              " drift=" + workload::DriftKindName(drift) +
              " threads=" + std::to_string(threads) +
              " warmed=" + std::to_string(warmed);
          const std::vector<uint64_t> warm(ids.begin(),
                                           ids.begin() + warmed);
          typename Policy::Network got = Policy::MakeNetwork(cfg, seeds);
          typename Policy::Network want = Policy::MakeNetwork(cfg, seeds);
          ASSERT_TRUE(got.BulkAdd(ids).ok());
          ASSERT_TRUE(want.BulkAdd(ids).ok());
          got.StabilizeAll();
          want.StabilizeAll();

          ThreadPool pool(threads);
          const Status st = internal::ParallelWarmup(
              pool, got, warm, workload.queries(), seeds.warmup,
              cfg.warmup_queries_per_node, model, base);
          ASSERT_TRUE(st.ok()) << where << ": " << st.ToString();
          ReferenceWarmup(want, warm, workload.queries(), seeds.warmup,
                          cfg.warmup_queries_per_node, model, base);
          // Every node is compared: the unwarmed suffix must stay empty in
          // both.
          ExpectSameTables(got, want, ids, where);
          EXPECT_GT(got.GetNode(warm.front())->frequencies.total(), 0u)
              << where;
          if (warmed < ids.size()) {
            EXPECT_EQ(got.GetNode(ids.back())->frequencies.total(), 0u)
                << where;
          }
        }
      }
    }
  }
}

TEST(WarmupOracle, ChordMatchesQueryAtATimeLoop) {
  CheckAgainstOracle<ChordPolicy>();
}

TEST(WarmupOracle, PastryMatchesQueryAtATimeLoop) {
  CheckAgainstOracle<PastryPolicy>();
}

TEST(WarmupOracle, KademliaMatchesQueryAtATimeLoop) {
  CheckAgainstOracle<KademliaPolicy>();
}

// Nothing to warm resolves nothing, so it succeeds even where resolution
// would fail; nodes to warm on an empty overlay fail the way
// ResponsibleNode does.
template <typename Policy>
void CheckEdges() {
  const ExperimentConfig cfg =
      OracleConfig(TableMode::kExact, workload::DriftKind::kNone);
  const SeedPlan seeds = Policy::MakeSeedPlan(cfg.seed);
  const std::vector<uint64_t> ids = SampleNodeIds(cfg, seeds.ids);
  WorkloadBundle workload(cfg, seeds, ids);
  typename Policy::Network empty = Policy::MakeNetwork(cfg, seeds);
  ThreadPool pool(2);
  const std::string where = Policy::kName;

  EXPECT_TRUE(internal::ParallelWarmup(pool, empty, {}, workload.queries(),
                                       seeds.warmup, 10)
                  .ok())
      << where;
  for (int queries : {0, -1}) {
    EXPECT_TRUE(internal::ParallelWarmup(pool, empty, ids,
                                         workload.queries(), seeds.warmup,
                                         queries)
                    .ok())
        << where << " queries=" << queries;
  }
  const Status st = internal::ParallelWarmup(pool, empty, ids,
                                             workload.queries(), seeds.warmup,
                                             10);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition)
      << where << ": " << st.ToString();
}

TEST(WarmupEdges, NothingToWarmIsOkAndEmptyOverlayFails) {
  CheckEdges<ChordPolicy>();
  CheckEdges<PastryPolicy>();
  CheckEdges<KademliaPolicy>();
}

// An arm learns frequencies if and only if its selector reads them: the
// core-only and oblivious arms, stable and churn, end with every table
// empty, while the optimal arm's tables fill.
template <typename Policy>
void CheckOnlyFrequencyAwareArmsLearn() {
  ExperimentConfig cfg;
  cfg.n_nodes = 64;
  cfg.k = 4;
  cfg.n_items = 256;
  cfg.warmup_queries_per_node = 30;
  cfg.measure_queries_per_node = 10;
  cfg.threads = 2;
  ChurnConfig churn;
  churn.queries_per_s = 2.0;
  churn.warmup_s = 200.0;
  churn.measure_s = 200.0;
  const std::string where = Policy::kName;
  for (SelectorKind selector : {SelectorKind::kNone, SelectorKind::kOblivious,
                                SelectorKind::kOptimal}) {
    const bool learns = selector == SelectorKind::kOptimal;
    Result<RunResult> stable = RunStable<Policy>(cfg, selector);
    ASSERT_TRUE(stable.ok()) << where << ": " << stable.status().ToString();
    EXPECT_EQ(stable->freq_tracked_mean > 0.0, learns)
        << where << " stable " << SelectorKindName(selector) << ": "
        << stable->freq_tracked_mean;
    Result<RunResult> churned = RunChurn<Policy>(cfg, churn, selector);
    ASSERT_TRUE(churned.ok()) << where << ": "
                              << churned.status().ToString();
    EXPECT_EQ(churned->freq_tracked_mean > 0.0, learns)
        << where << " churn " << SelectorKindName(selector) << ": "
        << churned->freq_tracked_mean;
  }
}

TEST(WarmupArms, OnlyFrequencyAwareArmsLearn) {
  CheckOnlyFrequencyAwareArmsLearn<ChordPolicy>();
  CheckOnlyFrequencyAwareArmsLearn<PastryPolicy>();
  CheckOnlyFrequencyAwareArmsLearn<KademliaPolicy>();
}

}  // namespace
}  // namespace peercache::experiments
