#include "experiments/json_report.h"

#include <cstdio>

#include "common/profiler.h"
#include "experiments/cost_audit.h"

namespace peercache::experiments {

namespace {

void WriteOnlineStatsJson(JsonWriter& w, const OnlineStats& s) {
  w.BeginObject();
  w.Key("count");
  w.UInt(s.count());
  w.Key("mean");
  w.Double(s.mean());
  w.Key("stddev");
  w.Double(s.stddev());
  w.Key("min");
  w.Double(s.min());
  w.Key("max");
  w.Double(s.max());
  w.EndObject();
}

void WriteHistogramJson(JsonWriter& w, const Histogram& h) {
  w.BeginObject();
  w.Key("count");
  w.UInt(h.count());
  w.Key("mean");
  w.Double(h.Mean());
  // Nearest-rank percentiles: each one is an observed hop count.
  w.Key("p50");
  w.Int(h.PercentileRank(0.50));
  w.Key("p95");
  w.Int(h.PercentileRank(0.95));
  w.Key("p99");
  w.Int(h.PercentileRank(0.99));
  w.Key("overflow");
  w.UInt(h.overflow());
  // Per-bucket counts up to the last nonzero bucket: enough to rebuild the
  // full distribution without padding every document to max_value entries.
  int last = -1;
  for (int v = 0; v <= h.max_value(); ++v) {
    if (h.BucketCount(v) > 0) last = v;
  }
  w.Key("buckets");
  w.BeginArray();
  for (int v = 0; v <= last; ++v) w.UInt(h.BucketCount(v));
  w.EndArray();
  w.EndObject();
}

}  // namespace

void WriteConfigJson(JsonWriter& w, const ExperimentConfig& config) {
  w.BeginObject();
  w.Key("bits");
  w.Int(config.bits);
  w.Key("n_nodes");
  w.Int(config.n_nodes);
  w.Key("k");
  w.Int(config.k);
  w.Key("alpha");
  w.Double(config.alpha);
  w.Key("n_items");
  w.UInt(config.n_items);
  w.Key("n_popularity_lists");
  w.Int(config.n_popularity_lists);
  w.Key("seed");
  w.UInt(config.seed);
  w.Key("warmup_queries_per_node");
  w.Int(config.warmup_queries_per_node);
  w.Key("measure_queries_per_node");
  w.Int(config.measure_queries_per_node);
  w.Key("frequency_capacity");
  w.UInt(config.frequency_capacity);
  w.Key("successor_list_size");
  w.Int(config.successor_list_size);
  w.Key("leaf_set_half");
  w.Int(config.leaf_set_half);
  w.Key("threads");
  w.Int(config.threads);
  w.Key("trace_sample_period");
  w.Int(config.trace_sample_period);
  w.Key("maintenance_audit_period");
  w.Int(config.maintenance_audit_period);
  // Each feature's knobs appear if and only if the feature is on.
  if (config.faults.enabled()) {
    w.Key("fault_drop");
    w.Double(config.faults.drop_prob);
    w.Key("fault_fail");
    w.Double(config.faults.fail_prob);
    w.Key("fault_stale");
    w.Double(config.faults.stale_prob);
    w.Key("fault_seed");
    w.UInt(config.faults.seed);
    w.Key("fault_max_retries");
    w.Int(config.faults.max_retries);
    w.Key("fault_retry");
    w.Bool(config.faults.retry);
  }
  if (config.freq_sketch.enabled()) {
    w.Key("freq_sketch_top_capacity");
    w.UInt(config.freq_sketch.top_capacity);
    w.Key("freq_sketch_cm_width");
    w.UInt(config.freq_sketch.cm_width);
    w.Key("freq_sketch_cm_depth");
    w.Int(config.freq_sketch.cm_depth);
    w.Key("freq_sketch_seed");
    w.UInt(config.freq_sketch.seed);
  }
  if (config.drift.enabled()) {
    w.Key("drift_kind");
    w.String(workload::DriftKindName(config.drift.kind));
    w.Key("drift_period");
    w.Int(config.drift.period);
    w.Key("drift_shuffle_fraction");
    w.Double(config.drift.shuffle_fraction);
    w.Key("drift_flash_boost");
    w.Double(config.drift.flash_boost);
    w.Key("drift_max_epochs");
    w.Int(config.drift.max_epochs);
    w.Key("drift_seed");
    w.UInt(config.drift.seed);
  }
  if (config.budget_gamma > 0.0) {
    w.Key("budget_gamma");
    w.Double(config.budget_gamma);
    w.Key("budget_seed");
    w.UInt(config.budget_seed);
  }
  if (config.latency.enabled()) {
    w.Key("latency_base_rtt_ms");
    w.Double(config.latency.base_rtt_ms);
    w.Key("latency_coord_scale_ms");
    w.Double(config.latency.coord_scale_ms);
    w.Key("latency_jitter_ms");
    w.Double(config.latency.jitter_ms);
    w.Key("latency_timeout_ms");
    w.Double(config.latency.timeout_ms);
    w.Key("latency_seed");
    w.UInt(config.latency.seed);
    if (!config.latency_matrix.empty()) {
      w.Key("latency_matrix_nodes");
      w.UInt(config.latency_matrix.ids.size());
    }
    if (config.qos_rtt_threshold_ms > 0.0) {
      w.Key("qos_rtt_threshold_ms");
      w.Double(config.qos_rtt_threshold_ms);
      w.Key("qos_delay_bound");
      w.Int(config.qos_delay_bound);
    }
  }
  w.EndObject();
}

void WriteLatencyJson(JsonWriter& w, const LogHistogram& h) {
  w.BeginObject();
  w.Key("count");
  w.UInt(h.count());
  w.Key("mean_ms");
  w.Double(h.Mean());
  w.Key("min_ms");
  w.Double(h.min());
  w.Key("max_ms");
  w.Double(h.max());
  w.Key("p50_ms");
  w.Double(h.Percentile(0.50));
  w.Key("p90_ms");
  w.Double(h.Percentile(0.90));
  w.Key("p99_ms");
  w.Double(h.Percentile(0.99));
  w.Key("p999_ms");
  w.Double(h.Percentile(0.999));
  w.EndObject();
}

void WriteResilienceJson(JsonWriter& w, const ResilienceStats& r) {
  w.BeginObject();
  w.Key("lookups");
  w.UInt(r.lookups);
  w.Key("delivered");
  w.UInt(r.delivered);
  w.Key("success_rate");
  w.Double(r.SuccessRate());
  w.Key("retried_lookups");
  w.UInt(r.retried_lookups);
  w.Key("retries");
  w.UInt(r.retries);
  w.Key("dropped_forwards");
  w.UInt(r.dropped_forwards);
  w.Key("failstop_skips");
  w.UInt(r.failstop_skips);
  w.Key("stale_forwards");
  w.UInt(r.stale_forwards);
  w.Key("budget_exhausted");
  w.UInt(r.budget_exhausted);
  w.Key("dead_entry_evictions");
  w.UInt(r.dead_entry_evictions);
  w.EndObject();
}

void WriteRunResultJson(JsonWriter& w, const RunResult& result,
                        const ExperimentConfig& config) {
  w.BeginObject();
  w.Key("avg_hops");
  w.Double(result.avg_hops);
  w.Key("success_rate");
  w.Double(result.success_rate);
  w.Key("queries");
  w.UInt(result.queries);
  w.Key("phase_seconds");
  w.BeginObject();
  w.Key("warmup");
  w.Double(result.warmup_seconds);
  w.Key("selection");
  w.Double(result.selection_seconds);
  w.Key("measure");
  w.Double(result.measure_seconds);
  w.EndObject();
  w.Key("hop_histogram");
  WriteHistogramJson(w, result.hop_histogram);
  w.Key("aux_hit_rate");
  w.Double(result.aux_hit_rate);
  w.Key("aux_route_hops");
  w.UInt(result.aux_route_hops);
  w.Key("total_route_hops");
  w.UInt(result.total_route_hops);
  w.Key("cost_audit");
  {
    const CostAuditSummary audit = SummarizeCostAudit(result.cost_audit);
    w.BeginObject();
    w.Key("nodes");
    w.UInt(audit.nodes);
    w.Key("residual");
    WriteOnlineStatsJson(w, audit.residual);
    w.Key("abs_residual");
    WriteOnlineStatsJson(w, audit.abs_residual);
    w.EndObject();
  }
  w.Key("sampled_traces");
  w.UInt(result.traces.size());
  // Incremental churn-maintenance telemetry (the optimal policy under
  // churn only; empty otherwise). Per-round "seconds" is the single wall-clock
  // field — determinism comparisons must strip it, like phase_seconds.
  w.Key("maintenance");
  {
    MaintenanceRoundStats total;
    for (const MaintenanceRoundStats& r : result.maintenance_rounds) {
      total.peer_joins += r.peer_joins;
      total.peer_leaves += r.peer_leaves;
      total.freq_deltas += r.freq_deltas;
      total.core_deltas += r.core_deltas;
      total.audited_nodes += r.audited_nodes;
      total.seconds += r.seconds;
    }
    w.BeginObject();
    w.Key("rounds");
    w.UInt(result.maintenance_rounds.size());
    w.Key("peer_joins");
    w.UInt(total.peer_joins);
    w.Key("peer_leaves");
    w.UInt(total.peer_leaves);
    w.Key("freq_deltas");
    w.UInt(total.freq_deltas);
    w.Key("core_deltas");
    w.UInt(total.core_deltas);
    w.Key("audited_nodes");
    w.UInt(total.audited_nodes);
    w.Key("seconds");
    w.Double(total.seconds);
    w.Key("per_round");
    w.BeginArray();
    for (const MaintenanceRoundStats& r : result.maintenance_rounds) {
      w.BeginObject();
      w.Key("sim_time_s");
      w.Double(r.sim_time_s);
      w.Key("live_nodes");
      w.UInt(r.live_nodes);
      w.Key("bootstrapped");
      w.UInt(r.bootstrapped);
      w.Key("peer_joins");
      w.UInt(r.peer_joins);
      w.Key("peer_leaves");
      w.UInt(r.peer_leaves);
      w.Key("freq_deltas");
      w.UInt(r.freq_deltas);
      w.Key("core_deltas");
      w.UInt(r.core_deltas);
      w.Key("audited_nodes");
      w.UInt(r.audited_nodes);
      w.Key("seconds");
      w.Double(r.seconds);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  // The optional blocks, by the emission rule (json_report.h).
  if (config.faults.enabled()) {
    w.Key("resilience");
    WriteResilienceJson(w, result.resilience);
  }
  if (config.latency.enabled()) {
    w.Key("latency");
    WriteLatencyJson(w, result.latency_histogram);
  }
  // Modeled bytes accumulated serially in node-id order: thread-count and
  // platform invariant.
  if (config.freq_sketch.enabled()) {
    w.Key("freq_sketch");
    w.BeginObject();
    w.Key("top_capacity");
    w.UInt(config.freq_sketch.top_capacity);
    w.Key("cm_width");
    w.UInt(config.freq_sketch.cm_width);
    w.Key("cm_depth");
    w.Int(config.freq_sketch.cm_depth);
    w.Key("summary_bytes_per_node");
    w.Double(result.freq_summary_bytes_mean);
    w.Key("tracked_per_node");
    w.Double(result.freq_tracked_mean);
    w.EndObject();
  }
  // Arena mutations are serial, so these bytes are thread-count invariant.
  // bytes_per_node also counts node records and vector capacities, whose
  // sizes belong to the standard library: the committed scale-frontier
  // golden pins them for the toolchain that wrote it, and cross-toolchain
  // comparisons should prefer table_bytes/arena_bytes.
  if (config.report_memory) {
    w.Key("memory");
    w.BeginObject();
    w.Key("bytes_per_node");
    w.Double(result.memory.bytes_per_node);
    w.Key("table_bytes");
    w.UInt(result.memory.table_bytes);
    w.Key("arena_bytes");
    w.UInt(result.memory.arena_bytes);
    w.EndObject();
  }
  w.EndObject();
}

void WriteComparisonJson(JsonWriter& w, const Comparison& cmp,
                         const ExperimentConfig& config) {
  w.BeginObject();
  w.Key("runs");
  w.BeginObject();
  w.Key("none");
  WriteRunResultJson(w, cmp.none, config);
  w.Key("oblivious");
  WriteRunResultJson(w, cmp.oblivious, config);
  w.Key("optimal");
  WriteRunResultJson(w, cmp.optimal, config);
  w.EndObject();
  w.Key("improvement_pct");
  w.Double(cmp.improvement_pct);
  w.Key("improvement_vs_none_pct");
  w.Double(cmp.improvement_vs_none_pct);
  w.EndObject();
}

std::string ComparisonDocument(const std::string& generator,
                               const std::string& system,
                               const std::string& mode,
                               const ExperimentConfig& config,
                               const Comparison& cmp) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(kTelemetrySchemaVersion);
  w.Key("generator");
  w.String(generator);
  w.Key("kind");
  w.String("comparison");
  w.Key("system");
  w.String(system);
  w.Key("mode");
  w.String(mode);
  w.Key("config");
  WriteConfigJson(w, config);
  w.Key("comparison");
  WriteComparisonJson(w, cmp, config);
  // Phase-profiler report, present only when profiling was switched on for
  // this process (--profile): default documents are unaffected.
  if (Profiler::Global().enabled()) {
    w.Key("profile");
    Profiler::Global().WriteJson(w);
  }
  w.EndObject();
  return w.TakeString();
}

std::string TraceJsonLine(const std::string& system, const char* policy,
                          const RouteTrace& trace) {
  JsonWriter w;
  w.BeginObject();
  w.Key("system");
  w.String(system);
  w.Key("policy");
  w.String(policy);
  w.Key("origin");
  w.UInt(trace.origin);
  w.Key("key");
  w.UInt(trace.key);
  w.Key("destination");
  w.UInt(trace.destination);
  w.Key("success");
  w.Bool(trace.success);
  w.Key("hops");
  w.Int(trace.hops);
  // Modeled end-to-end latency, emitted only when a latency model ran.
  if (trace.latency_ms > 0.0) {
    w.Key("latency_ms");
    w.Double(trace.latency_ms);
  }
  w.Key("path");
  w.BeginArray();
  for (const HopRecord& hop : trace.path) {
    w.BeginObject();
    w.Key("from");
    w.UInt(hop.from);
    w.Key("to");
    w.UInt(hop.to);
    w.Key("entry");
    w.String(HopEntryKindName(hop.kind));
    w.Key("remaining");
    w.UInt(hop.remaining);
    // Fault tags are emitted only when set.
    if (hop.dropped) {
      w.Key("dropped");
      w.Bool(true);
    }
    if (hop.retried) {
      w.Key("retried");
      w.Bool(true);
    }
    if (hop.latency_ms > 0.0) {
      w.Key("latency_ms");
      w.Double(hop.latency_ms);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

Status WriteStringToFile(const std::string& path,
                         const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Unavailable("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != content.size() || !flushed) {
    return Status::Unavailable("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace peercache::experiments
