// Observability layer guarantees: sampled route traces and the run object
// are part of the engine's determinism contract (threads=1 and threads=4
// serialize byte-identically once wall-clock values are excluded), traces
// are internally consistent routes, the Eq. 1 cost audit lines up with the
// aggregate hop accounting, and each optional block of a run object follows
// the emission rule of json_report.h.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/trace.h"
#include "experiments/generic_experiment.h"
#include "experiments/cost_audit.h"
#include "experiments/json_report.h"

namespace peercache::experiments {
namespace {

ExperimentConfig BaseConfig(uint64_t seed) {
  ExperimentConfig cfg;
  cfg.n_nodes = 96;
  cfg.k = 7;
  cfg.alpha = 1.2;
  cfg.n_items = 384;
  cfg.warmup_queries_per_node = 60;
  cfg.measure_queries_per_node = 40;
  cfg.trace_sample_period = 10;
  cfg.seed = seed;
  return cfg;
}

/// The run object as a document carries it, with its wall-clock values
/// (phase_seconds and every maintenance `seconds`) zeroed: everything left
/// must be the same at every thread count.
std::string SerializedRunNoWallClock(RunResult result,
                                     const ExperimentConfig& cfg) {
  result.warmup_seconds = 0.0;
  result.selection_seconds = 0.0;
  result.measure_seconds = 0.0;
  for (MaintenanceRoundStats& r : result.maintenance_rounds) r.seconds = 0.0;
  JsonWriter w;
  WriteRunResultJson(w, result, cfg);
  return w.TakeString();
}

std::string SerializedTraces(const std::string& system,
                             const RunResult& result) {
  std::string out;
  for (const RouteTrace& trace : result.traces) {
    out += TraceJsonLine(system, "optimal", trace);
    out += '\n';
  }
  return out;
}

std::string SerializedAudit(const RunResult& result) {
  JsonWriter w;
  w.BeginArray();
  for (const CostAuditEntry& e : result.cost_audit) {
    w.BeginObject();
    w.Key("node");
    w.UInt(e.node_id);
    w.Key("predicted");
    w.Double(e.predicted_hops);
    w.Key("measured");
    w.Double(e.measured_hops);
    w.Key("queries");
    w.UInt(e.measured_queries);
    w.EndObject();
  }
  w.EndArray();
  return w.TakeString();
}

TEST(Observability, ChordTelemetryIsThreadCountInvariant) {
  ExperimentConfig cfg = BaseConfig(0xa0);
  cfg.n_popularity_lists = 5;
  cfg.threads = 1;
  auto serial = RunStable<ChordPolicy>(cfg, SelectorKind::kOptimal);
  cfg.threads = 4;
  auto parallel = RunStable<ChordPolicy>(cfg, SelectorKind::kOptimal);
  ASSERT_TRUE(serial.ok() && parallel.ok());

  EXPECT_EQ(SerializedRunNoWallClock(*serial, cfg),
            SerializedRunNoWallClock(*parallel, cfg));
  EXPECT_EQ(SerializedTraces("chord", *serial),
            SerializedTraces("chord", *parallel));
  EXPECT_EQ(SerializedAudit(*serial), SerializedAudit(*parallel));
  EXPECT_EQ(serial->total_route_hops, parallel->total_route_hops);
  EXPECT_EQ(serial->aux_route_hops, parallel->aux_route_hops);
  EXPECT_DOUBLE_EQ(serial->aux_hit_rate, parallel->aux_hit_rate);
  EXPECT_FALSE(serial->traces.empty());
}

TEST(Observability, PastryTelemetryIsThreadCountInvariant) {
  ExperimentConfig cfg = BaseConfig(0xa1);
  cfg.threads = 1;
  auto serial = RunStable<PastryPolicy>(cfg, SelectorKind::kOptimal);
  cfg.threads = 4;
  auto parallel = RunStable<PastryPolicy>(cfg, SelectorKind::kOptimal);
  ASSERT_TRUE(serial.ok() && parallel.ok());

  EXPECT_EQ(SerializedRunNoWallClock(*serial, cfg),
            SerializedRunNoWallClock(*parallel, cfg));
  EXPECT_EQ(SerializedTraces("pastry", *serial),
            SerializedTraces("pastry", *parallel));
  EXPECT_EQ(SerializedAudit(*serial), SerializedAudit(*parallel));
  EXPECT_FALSE(serial->traces.empty());
}

void ExpectWellFormedTraces(const RunResult& result, bool chord) {
  ASSERT_FALSE(result.traces.empty());
  for (const RouteTrace& trace : result.traces) {
    if (!trace.success) continue;
    EXPECT_EQ(trace.path.size(), static_cast<size_t>(trace.hops));
    if (trace.path.empty()) {
      // Zero-hop lookup: the origin owned the key.
      EXPECT_EQ(trace.destination, trace.origin);
      continue;
    }
    EXPECT_EQ(trace.path.front().from, trace.origin);
    EXPECT_EQ(trace.path.back().to, trace.destination);
    for (size_t i = 0; i + 1 < trace.path.size(); ++i) {
      EXPECT_EQ(trace.path[i].to, trace.path[i + 1].from) << "broken chain";
    }
    for (const HopRecord& hop : trace.path) {
      if (chord) {
        EXPECT_NE(hop.kind, HopEntryKind::kRoutingRow);
        EXPECT_NE(hop.kind, HopEntryKind::kLeafSet);
      } else {
        EXPECT_NE(hop.kind, HopEntryKind::kFinger);
        EXPECT_NE(hop.kind, HopEntryKind::kSuccessor);
      }
    }
  }
}

TEST(Observability, ChordTracesAreConsistentRoutes) {
  ExperimentConfig cfg = BaseConfig(0xcc);
  cfg.n_popularity_lists = 5;
  auto result = RunStable<ChordPolicy>(cfg, SelectorKind::kOptimal);
  ASSERT_TRUE(result.ok());
  ExpectWellFormedTraces(*result, /*chord=*/true);
}

TEST(Observability, PastryTracesAreConsistentRoutes) {
  ExperimentConfig cfg = BaseConfig(0xdd);
  auto result = RunStable<PastryPolicy>(cfg, SelectorKind::kOptimal);
  ASSERT_TRUE(result.ok());
  ExpectWellFormedTraces(*result, /*chord=*/false);
}

TEST(Observability, TracingIsOffByDefault) {
  ExperimentConfig cfg = BaseConfig(0xee);
  cfg.trace_sample_period = 0;
  auto result = RunStable<ChordPolicy>(cfg, SelectorKind::kOptimal);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->traces.empty());
}

// Every measured lookup is counted once, and the hop totals, the hop
// histogram, the success rate and the per-node audit means all describe
// the same successful lookups.
TEST(Observability, AuxAccountingMatchesHopTotals) {
  ExperimentConfig cfg = BaseConfig(0xff);
  cfg.n_popularity_lists = 5;
  auto result = RunStable<ChordPolicy>(cfg, SelectorKind::kOptimal);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(result->queries,
            static_cast<uint64_t>(cfg.n_nodes) *
                static_cast<uint64_t>(cfg.measure_queries_per_node));
  EXPECT_DOUBLE_EQ(result->success_rate,
                   static_cast<double>(result->hop_histogram.count()) /
                       static_cast<double>(result->queries));
  ASSERT_GT(result->total_route_hops, 0u);
  EXPECT_EQ(result->total_route_hops,
            static_cast<uint64_t>(result->hop_histogram.sum()));
  EXPECT_LE(result->aux_route_hops, result->total_route_hops);
  double audited_hops = 0.0;
  for (const CostAuditEntry& e : result->cost_audit) {
    audited_hops += e.measured_hops * static_cast<double>(e.measured_queries);
  }
  EXPECT_NEAR(audited_hops, static_cast<double>(result->total_route_hops),
              1e-6 * static_cast<double>(result->total_route_hops));
  EXPECT_DOUBLE_EQ(result->aux_hit_rate,
                   static_cast<double>(result->aux_route_hops) /
                       static_cast<double>(result->total_route_hops));
  // An optimal selection on a zipf workload routes a visible share of
  // traffic through the auxiliaries — that is the paper's whole point.
  EXPECT_GT(result->aux_hit_rate, 0.0);
}

TEST(Observability, CoreOnlyRunHasNoAuxHops) {
  ExperimentConfig cfg = BaseConfig(0xab);
  auto result = RunStable<ChordPolicy>(cfg, SelectorKind::kNone);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->aux_route_hops, 0u);
  EXPECT_DOUBLE_EQ(result->aux_hit_rate, 0.0);
}

TEST(Observability, CostAuditCoversEveryNodeExactlyOnce) {
  ExperimentConfig cfg = BaseConfig(0xba);
  cfg.n_popularity_lists = 5;
  auto result = RunStable<ChordPolicy>(cfg, SelectorKind::kOptimal);
  ASSERT_TRUE(result.ok());

  ASSERT_EQ(result->cost_audit.size(), static_cast<size_t>(cfg.n_nodes));
  for (size_t i = 0; i + 1 < result->cost_audit.size(); ++i) {
    EXPECT_LT(result->cost_audit[i].node_id,
              result->cost_audit[i + 1].node_id);
  }
  for (const CostAuditEntry& e : result->cost_audit) {
    EXPECT_GT(e.measured_queries, 0u);
    EXPECT_TRUE(std::isfinite(e.predicted_hops));
    EXPECT_GE(e.measured_hops, 0.0);
  }
  const CostAuditSummary summary = SummarizeCostAudit(result->cost_audit);
  EXPECT_EQ(summary.nodes, static_cast<uint64_t>(cfg.n_nodes));
  EXPECT_EQ(summary.residual.count(), static_cast<uint64_t>(cfg.n_nodes));
}

// The oblivious selector publishes no Eq. 1 prediction, so no audit rows.
TEST(Observability, NoAuditWithoutPrediction) {
  ExperimentConfig cfg = BaseConfig(0xcd);
  auto result = RunStable<ChordPolicy>(cfg, SelectorKind::kOblivious);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->cost_audit.empty());
}

TEST(Observability, SummarizeCostAuditSkipsUnusableEntries) {
  std::vector<CostAuditEntry> entries;
  entries.push_back({1, 2.0, 1.5, 10});                   // usable
  entries.push_back({2, std::nan(""), 1.0, 10});          // no prediction
  entries.push_back({3, 2.0, 0.0, 0});                    // no measurements
  const CostAuditSummary summary = SummarizeCostAudit(entries);
  EXPECT_EQ(summary.nodes, 1u);
  EXPECT_DOUBLE_EQ(summary.residual.mean(), -0.5);
  EXPECT_DOUBLE_EQ(summary.abs_residual.mean(), 0.5);
}

TEST(Observability, ChurnRunProducesTelemetry) {
  ExperimentConfig cfg = BaseConfig(0xce);
  cfg.n_popularity_lists = 5;
  ChurnConfig churn;
  churn.warmup_s = 400;
  churn.measure_s = 400;
  auto result = RunChurn<ChordPolicy>(cfg, churn, SelectorKind::kOptimal);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->traces.empty());
  EXPECT_GT(result->total_route_hops, 0u);
  EXPECT_EQ(result->total_route_hops,
            static_cast<uint64_t>(result->hop_histogram.sum()));
  EXPECT_GT(result->queries, 0u);
  EXPECT_LE(result->hop_histogram.count(), result->queries);
  EXPECT_FALSE(result->cost_audit.empty());
  // The audit pairs a subset of the window's origins with their measured
  // means, so its hop mass cannot exceed the window's.
  double audited_hops = 0.0;
  for (const CostAuditEntry& e : result->cost_audit) {
    audited_hops += e.measured_hops * static_cast<double>(e.measured_queries);
  }
  EXPECT_LE(audited_hops,
            static_cast<double>(result->total_route_hops) + 1e-6);
}

ExperimentConfig LatencyConfigOn(uint64_t seed) {
  ExperimentConfig cfg = BaseConfig(seed);
  cfg.n_popularity_lists = 5;
  cfg.latency.base_rtt_ms = 2.0;
  cfg.latency.coord_scale_ms = 60.0;
  cfg.latency.jitter_ms = 3.0;
  cfg.latency.timeout_ms = 20.0;
  return cfg;
}

// Switching the latency model on must not move a single packet: routing,
// selection, and every hop-count statistic are untouched — the model only
// annotates the hops that already happened.
TEST(Observability, LatencyModelDoesNotPerturbRouting) {
  ExperimentConfig off = BaseConfig(0xd0);
  off.n_popularity_lists = 5;
  auto plain = RunStable<ChordPolicy>(off, SelectorKind::kOptimal);
  auto timed = RunStable<ChordPolicy>(LatencyConfigOn(0xd0),
                                      SelectorKind::kOptimal);
  ASSERT_TRUE(plain.ok() && timed.ok());
  EXPECT_EQ(plain->avg_hops, timed->avg_hops);
  EXPECT_EQ(plain->total_route_hops, timed->total_route_hops);
  EXPECT_EQ(plain->aux_route_hops, timed->aux_route_hops);
  EXPECT_EQ(SerializedAudit(*plain), SerializedAudit(*timed));
  // Every measured lookup landed one sample in the latency histogram.
  EXPECT_EQ(timed->latency_histogram.count(), timed->queries);
  EXPECT_EQ(plain->latency_histogram.count(), 0u);
}

// The latency histogram and the per-hop spans in the traces join the
// determinism contract: byte-identical at threads 1 and 4.
TEST(Observability, LatencyTelemetryIsThreadCountInvariant) {
  ExperimentConfig cfg = LatencyConfigOn(0xd1);
  cfg.threads = 1;
  auto serial = RunStable<ChordPolicy>(cfg, SelectorKind::kOptimal);
  cfg.threads = 4;
  auto parallel = RunStable<ChordPolicy>(cfg, SelectorKind::kOptimal);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(serial->latency_histogram.count(),
            parallel->latency_histogram.count());
  EXPECT_EQ(serial->latency_histogram.sum(), parallel->latency_histogram.sum());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(serial->latency_histogram.Percentile(q),
              parallel->latency_histogram.Percentile(q))
        << "q=" << q;
  }
  // Traces carry per-hop latency_ms spans; the serialized lines (latency
  // fields included) must agree byte for byte.
  EXPECT_EQ(SerializedTraces("chord", *serial),
            SerializedTraces("chord", *parallel));
  bool saw_hop_span = false;
  for (const RouteTrace& trace : serial->traces) {
    for (const HopRecord& hop : trace.path) {
      if (hop.latency_ms > 0.0) saw_hop_span = true;
    }
    if (!trace.path.empty() && trace.success) {
      double total = 0.0;
      for (const HopRecord& hop : trace.path) total += hop.latency_ms;
      EXPECT_LE(total, trace.latency_ms + 1e-9);  // failed attempts add more
    }
  }
  EXPECT_TRUE(saw_hop_span);
}

// The run-level latency block and the latency_* config keys are emitted
// only for latency-enabled runs, and the percentiles appear once, in the
// `latency` block.
TEST(Observability, LatencyJsonIsConditional) {
  ExperimentConfig off = BaseConfig(0xd2);
  off.n_popularity_lists = 5;
  auto cmp_off = CompareStable<ChordPolicy>(off);
  ASSERT_TRUE(cmp_off.ok());
  const std::string doc_off =
      ComparisonDocument("observability_test", "chord", "stable", off,
                         *cmp_off);
  EXPECT_EQ(doc_off.find("\"latency\""), std::string::npos);
  EXPECT_EQ(doc_off.find("latency_base_rtt_ms"), std::string::npos);
  EXPECT_EQ(doc_off.find("latency_histograms"), std::string::npos);

  const ExperimentConfig on = LatencyConfigOn(0xd2);
  auto cmp_on = CompareStable<ChordPolicy>(on);
  ASSERT_TRUE(cmp_on.ok());
  const std::string doc_on =
      ComparisonDocument("observability_test", "chord", "stable", on, *cmp_on);
  EXPECT_NE(doc_on.find("\"latency_base_rtt_ms\":2"), std::string::npos);
  EXPECT_NE(doc_on.find("\"latency\":{\"count\":"), std::string::npos);
  EXPECT_NE(doc_on.find("\"p999_ms\""), std::string::npos);
  EXPECT_EQ(doc_on.find("latency_histograms"), std::string::npos);
}

// Churn runs accrue latency through the same per-hop path, including the
// timeout cost of failed forwarding attempts.
TEST(Observability, ChurnRunAccruesLatency) {
  ExperimentConfig cfg = LatencyConfigOn(0xd3);
  ChurnConfig churn;
  churn.warmup_s = 400;
  churn.measure_s = 400;
  auto result = RunChurn<ChordPolicy>(cfg, churn, SelectorKind::kOptimal);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->queries, 0u);
  EXPECT_EQ(result->latency_histogram.count(), result->queries);
  EXPECT_GT(result->latency_histogram.max(), 0.0);
}

// Sketch-mode telemetry follows the latency rule: a sketch-off document
// has no freq_sketch / drift / budget keys anywhere, a sketch-on document
// gains the conditional block.
TEST(Observability, FreqSketchJsonIsConditional) {
  ExperimentConfig off = BaseConfig(0xd4);
  off.n_popularity_lists = 5;
  auto cmp_off = CompareStable<ChordPolicy>(off);
  ASSERT_TRUE(cmp_off.ok());
  const std::string doc_off =
      ComparisonDocument("observability_test", "chord", "stable", off,
                         *cmp_off);
  EXPECT_EQ(doc_off.find("freq_sketch"), std::string::npos);
  EXPECT_EQ(doc_off.find("drift_"), std::string::npos);
  EXPECT_EQ(doc_off.find("budget_gamma"), std::string::npos);

  ExperimentConfig on = off;
  on.freq_sketch.top_capacity = 16;
  on.freq_sketch.cm_width = 32;
  on.freq_sketch.cm_depth = 2;
  auto cmp_on = CompareStable<ChordPolicy>(on);
  ASSERT_TRUE(cmp_on.ok());
  const std::string doc_on =
      ComparisonDocument("observability_test", "chord", "stable", on, *cmp_on);
  EXPECT_NE(doc_on.find("\"freq_sketch_top_capacity\":16"), std::string::npos);
  EXPECT_NE(doc_on.find("\"freq_sketch\":{\"top_capacity\":16"),
            std::string::npos);
  EXPECT_NE(doc_on.find("\"summary_bytes_per_node\""), std::string::npos);
  EXPECT_NE(doc_on.find("\"tracked_per_node\""), std::string::npos);
  EXPECT_EQ(doc_on.find("{\"schema_version\":2,"), 0u);
}

// A sketch-mode run joins the determinism contract: all telemetry except
// wall-clock values is byte-identical at threads 1 and 4.
TEST(Observability, FreqSketchTelemetryIsThreadCountInvariant) {
  ExperimentConfig cfg = BaseConfig(0xd5);
  cfg.n_popularity_lists = 5;
  cfg.freq_sketch.top_capacity = 16;
  cfg.freq_sketch.cm_width = 32;
  cfg.freq_sketch.cm_depth = 2;
  cfg.drift.kind = workload::DriftKind::kRankShuffle;
  cfg.drift.period = 20;
  cfg.threads = 1;
  auto serial = RunStable<ChordPolicy>(cfg, SelectorKind::kOptimal);
  cfg.threads = 4;
  auto parallel = RunStable<ChordPolicy>(cfg, SelectorKind::kOptimal);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(SerializedRunNoWallClock(*serial, cfg),
            SerializedRunNoWallClock(*parallel, cfg));
  EXPECT_EQ(SerializedTraces("chord", *serial),
            SerializedTraces("chord", *parallel));
  EXPECT_EQ(SerializedAudit(*serial), SerializedAudit(*parallel));
  EXPECT_DOUBLE_EQ(serial->freq_summary_bytes_mean,
                   parallel->freq_summary_bytes_mean);
  EXPECT_DOUBLE_EQ(serial->freq_tracked_mean, parallel->freq_tracked_mean);
  // Sketch tables track at most top_capacity peers each.
  EXPECT_LE(serial->freq_tracked_mean, 16.0);
  EXPECT_GT(serial->freq_tracked_mean, 0.0);
}

TEST(Observability, ComparisonDocumentHasSchemaEnvelope) {
  ExperimentConfig cfg = BaseConfig(0xde);
  cfg.n_popularity_lists = 5;
  auto cmp = CompareStable<ChordPolicy>(cfg);
  ASSERT_TRUE(cmp.ok());
  const std::string doc =
      ComparisonDocument("observability_test", "chord", "stable", cfg, *cmp);
  EXPECT_EQ(doc.find("{\"schema_version\":2,"), 0u);
  EXPECT_NE(doc.find("\"generator\":\"observability_test\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"runs\":{\"none\":"), std::string::npos);
  EXPECT_NE(doc.find("\"aux_hit_rate\""), std::string::npos);
  EXPECT_NE(doc.find("\"cost_audit\""), std::string::npos);
  EXPECT_NE(doc.find("\"phase_seconds\""), std::string::npos);
  EXPECT_NE(doc.find("\"hop_histogram\""), std::string::npos);
  EXPECT_EQ(doc.find("\"metrics\""), std::string::npos);
}

bool HasBlock(const std::string& run_object, const std::string& block) {
  return run_object.find("\"" + block + "\":{") != std::string::npos;
}

// The emission rule (json_report.h): a run object carries each optional
// block if and only if its feature is on in the run's config.
TEST(Observability, EachOptionalBlockAppearsIffItsFeatureIsOn) {
  using Enable = void (*)(ExperimentConfig&);
  const std::pair<std::string, Enable> features[] = {
      {"resilience",
       [](ExperimentConfig& c) {
         c.faults.drop_prob = 0.1;
         c.faults.seed = 5;
       }},
      {"latency", [](ExperimentConfig& c) { c.latency.base_rtt_ms = 2.0; }},
      {"freq_sketch",
       [](ExperimentConfig& c) {
         c.freq_sketch.top_capacity = 16;
         c.freq_sketch.cm_width = 32;
         c.freq_sketch.cm_depth = 2;
       }},
      {"memory", [](ExperimentConfig& c) { c.report_memory = true; }},
  };
  ExperimentConfig off = BaseConfig(0xe0);
  off.n_nodes = 48;
  off.trace_sample_period = 0;
  auto plain = RunStable<ChordPolicy>(off, SelectorKind::kOptimal);
  ASSERT_TRUE(plain.ok());
  const std::string plain_object = SerializedRunNoWallClock(*plain, off);
  for (const auto& [block, enable] : features) {
    EXPECT_FALSE(HasBlock(plain_object, block)) << block;
    ExperimentConfig on = off;
    enable(on);
    auto run = RunStable<ChordPolicy>(on, SelectorKind::kOptimal);
    ASSERT_TRUE(run.ok()) << block;
    const std::string object = SerializedRunNoWallClock(*run, on);
    for (const auto& [other, unused] : features) {
      EXPECT_EQ(HasBlock(object, other), other == block)
          << other << " with only " << block << " on";
    }
  }

  // A churn run whose measurement window holds no lookup still carries the
  // block of an enabled feature, empty.
  ExperimentConfig timed = off;
  timed.latency.base_rtt_ms = 2.0;
  ChurnConfig churn;
  churn.warmup_s = 200;
  churn.measure_s = 0;
  auto idle = RunChurn<ChordPolicy>(timed, churn, SelectorKind::kOptimal);
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(idle->queries, 0u);
  EXPECT_NE(SerializedRunNoWallClock(*idle, timed).find(
                "\"latency\":{\"count\":0,"),
            std::string::npos);
}

}  // namespace
}  // namespace peercache::experiments
