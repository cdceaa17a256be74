#ifndef PEERCACHE_EXPERIMENTS_JSON_REPORT_H_
#define PEERCACHE_EXPERIMENTS_JSON_REPORT_H_

#include <string>

#include "common/json_writer.h"
#include "common/status.h"
#include "common/trace.h"
#include "experiments/experiment_config.h"

namespace peercache::experiments {

/// Version stamped into every machine-readable telemetry document
/// (`schema_version`). Bump when a field is renamed, removed or changes
/// meaning; adding fields is backward compatible and needs no bump.
/// The schema itself is documented in docs/OBSERVABILITY.md. Version 2
/// removed the run object's `metrics` block, whose values each run object
/// already carries under its typed keys.
inline constexpr int kTelemetrySchemaVersion = 2;

/// The emission rule: an optional block or key appears if and only if its
/// feature is on in the run's ExperimentConfig. For a run object
/// (WriteRunResultJson):
///
///   block         condition
///   resilience    config.faults.enabled()
///   latency       config.latency.enabled()
///   freq_sketch   config.freq_sketch.enabled()
///   memory        config.report_memory
///
/// The config block (WriteConfigJson) follows the same rule for its
/// `fault_*`, `freq_sketch_*`, `drift_*`, `budget_*` and `latency_*` keys,
/// and `qos_*` appears with the latency keys when a threshold is set.

/// Emits the config block shared by every document: one key per
/// ExperimentConfig field, in declaration order, under the emission rule.
void WriteConfigJson(JsonWriter& w, const ExperimentConfig& config);

/// Emits one run's aggregated resilience telemetry as a JSON object (the
/// "resilience" block; docs/RESILIENCE.md). Every field is deterministic —
/// a pure function of (seed, config) at any thread count.
void WriteResilienceJson(JsonWriter& w, const ResilienceStats& r);

/// Emits a lookup-latency distribution as a JSON object (the "latency"
/// block): count/mean/min/max plus interpolated p50/p90/p99/p99.9, all in
/// modeled milliseconds. Deterministic at any thread count.
void WriteLatencyJson(JsonWriter& w, const LogHistogram& h);

/// Emits one run's telemetry object: headline numbers, per-phase wall
/// clock, hop histogram with p50/p95/p99 and per-bucket counts, aux-hit
/// rate and hop totals, the Eq. 1 cost-audit residual distribution, the
/// maintenance rounds, and the optional blocks `config` turns on under the
/// emission rule. `config` is the one the run was made with.
void WriteRunResultJson(JsonWriter& w, const RunResult& result,
                        const ExperimentConfig& config);

/// Emits the three-policy comparison: `runs.{none,oblivious,optimal}`
/// plus both improvement metrics. All three runs share `config`.
void WriteComparisonJson(JsonWriter& w, const Comparison& cmp,
                         const ExperimentConfig& config);

/// Builds a complete schema-versioned comparison document.
/// `generator` names the binary ("sim_cli", "fig5_chord_vary_n", ...);
/// `system` is "chord" or "pastry"; `mode` is "stable" or "churn".
std::string ComparisonDocument(const std::string& generator,
                               const std::string& system,
                               const std::string& mode,
                               const ExperimentConfig& config,
                               const Comparison& cmp);

/// One sampled route trace as a single JSONL line (no trailing newline).
/// `policy` labels which run of a comparison produced it.
std::string TraceJsonLine(const std::string& system, const char* policy,
                          const RouteTrace& trace);

/// Writes `content` to `path` (truncating). Status::Unavailable on I/O
/// failure.
Status WriteStringToFile(const std::string& path, const std::string& content);

}  // namespace peercache::experiments

#endif  // PEERCACHE_EXPERIMENTS_JSON_REPORT_H_
