#ifndef PEERCACHE_BENCH_BENCH_UTIL_H_
#define PEERCACHE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/fault.h"
#include "common/latency.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "experiments/experiment_config.h"
#include "experiments/json_report.h"

namespace peercache::bench {

/// Command-line knobs shared by the figure harnesses.
///
///   --quick        shrink workloads for a fast smoke run
///   --seeds N      average improvements over N seeds (default 1)
///   --seed  S      base seed (default 1)
///   --threads T    size of the persistent worker pool the experiment
///                  phases shard node ranges across (0 = all hardware
///                  threads, 1 = serial; measured numbers are identical
///                  for every value)
///   --json-out F   write the figure as a schema-versioned JSON document
///   --log-level L  debug|info|warning|error (default warning)
///
/// Fault-injection knobs (docs/RESILIENCE.md; all default off):
///
///   --fault-drop P     per-forwarding-attempt message-drop probability
///   --fault-fail P     per-(lookup, node) fail-stop probability
///   --fault-stale P    per-(lookup, dead entry) stale-window probability
///   --fault-seed S     seed of the deterministic fault process
///   --fault-retries N  failed attempts tolerated per node visit
///   --no-fault-retries abort lookups on the first failed attempt
///
/// Latency-model knobs (docs/OBSERVABILITY.md; all default off):
///
///   --latency-base MS    per-hop propagation floor (enables the model)
///   --latency-scale MS   ms per unit of synthetic-coordinate distance
///   --latency-jitter MS  uniform per-attempt jitter upper bound
///   --latency-timeout MS time charged per failed forwarding attempt
///   --latency-seed S     seed of the coordinate/jitter hash space
///   --latency-matrix F   measured pairwise RTTs (ping-matrix text format)
///   --profile            enable the phase profiler ('profile' JSON block)
///   --trace-out FILE     write sampled route traces as JSONL
///   --trace-sample P     trace every P-th measured query per node
///                        (default 0 = off, or 100 with --trace-out)
///
/// Each harness applies the fault, latency and trace knobs to every run
/// config via `ApplyObservability`; a driver that cannot honour some of the
/// shared flags names them to `Parse`, which refuses them.
struct BenchArgs {
  bool quick = false;
  int seeds = 1;
  uint64_t base_seed = 1;
  int threads = 0;
  std::string json_out;
  fault::FaultConfig faults;
  latency::LatencyConfig latency;
  latency::PingMatrix latency_matrix;
  std::string trace_out;
  int trace_sample = 0;

  /// Parses the shared flags. A flag that starts with one of `refused` (the
  /// ones a driver's runs cannot honour) ends the process with status 2.
  static BenchArgs Parse(int argc, char** argv,
                         std::span<const std::string_view> refused = {}) {
    return Parse(argc, argv, refused, BenchArgs());
  }

  /// As above, over `args`, the driver's defaults: each given flag
  /// overrides its own field.
  static BenchArgs Parse(int argc, char** argv,
                         std::span<const std::string_view> refused,
                         BenchArgs args) {
    for (int i = 1; i < argc; ++i) {
      for (std::string_view prefix : refused) {
        if (std::string_view(argv[i]).starts_with(prefix)) {
          std::fprintf(stderr, "%s: %s is not supported by this driver\n",
                       argv[0], argv[i]);
          std::exit(2);
        }
      }
      if (std::strcmp(argv[i], "--quick") == 0) {
        args.quick = true;
      } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
        args.seeds = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        args.base_seed = static_cast<uint64_t>(std::atoll(argv[++i]));
      } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
        args.threads = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
        args.json_out = argv[++i];
      } else if (std::strcmp(argv[i], "--fault-drop") == 0 && i + 1 < argc) {
        args.faults.drop_prob = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--fault-fail") == 0 && i + 1 < argc) {
        args.faults.fail_prob = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--fault-stale") == 0 && i + 1 < argc) {
        args.faults.stale_prob = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
        args.faults.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
      } else if (std::strcmp(argv[i], "--fault-retries") == 0 &&
                 i + 1 < argc) {
        args.faults.max_retries = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--no-fault-retries") == 0) {
        args.faults.retry = false;
      } else if (std::strcmp(argv[i], "--latency-base") == 0 && i + 1 < argc) {
        args.latency.base_rtt_ms = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--latency-scale") == 0 &&
                 i + 1 < argc) {
        args.latency.coord_scale_ms = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--latency-jitter") == 0 &&
                 i + 1 < argc) {
        args.latency.jitter_ms = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--latency-timeout") == 0 &&
                 i + 1 < argc) {
        args.latency.timeout_ms = std::atof(argv[++i]);
      } else if (std::strcmp(argv[i], "--latency-seed") == 0 && i + 1 < argc) {
        args.latency.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
      } else if (std::strcmp(argv[i], "--latency-matrix") == 0 &&
                 i + 1 < argc) {
        Result<latency::PingMatrix> m = latency::LoadPingMatrixFile(argv[++i]);
        if (!m.ok()) {
          std::fprintf(stderr, "latency-matrix failed: %s\n",
                       m.status().ToString().c_str());
          std::exit(1);
        }
        args.latency_matrix = std::move(m).value();
      } else if (std::strcmp(argv[i], "--profile") == 0) {
        Profiler::Global().Enable(true);
      } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
        args.trace_out = argv[++i];
      } else if (std::strcmp(argv[i], "--trace-sample") == 0 && i + 1 < argc) {
        args.trace_sample = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--log-level") == 0 && i + 1 < argc) {
        LogLevel level;
        if (!ParseLogLevel(argv[++i], &level)) {
          std::fprintf(stderr, "unknown log level: %s\n", argv[i]);
          std::exit(2);
        }
        SetLogLevel(level);
      } else {
        std::fprintf(stderr,
                     "usage: %s [--quick] [--seeds N] [--seed S] [--threads T]"
                     " [--json-out FILE] [--fault-drop P]"
                     " [--fault-fail P]"
                     " [--fault-stale P] [--fault-seed S] [--fault-retries N]"
                     " [--no-fault-retries] [--latency-base MS]"
                     " [--latency-scale MS] [--latency-jitter MS]"
                     " [--latency-timeout MS] [--latency-seed S]"
                     " [--latency-matrix FILE] [--profile] [--trace-out FILE]"
                     " [--trace-sample P] [--log-level LEVEL]\n",
                     argv[0]);
        std::exit(2);
      }
    }
    if (args.seeds < 1) args.seeds = 1;
    if (args.trace_sample == 0 && !args.trace_out.empty()) {
      args.trace_sample = 100;
    }
    return args;
  }

  /// Copies the observability knobs (fault plan, latency model, ping matrix,
  /// trace sampling) into one run's config, so every row honors the shared
  /// command line.
  void ApplyObservability(experiments::ExperimentConfig& cfg) const {
    cfg.faults = faults;
    cfg.latency = latency;
    cfg.latency_matrix = latency_matrix;
    if (trace_sample > 0) cfg.trace_sample_period = trace_sample;
  }

  /// The config every figure and ablation row is built on: the base seed,
  /// 100 warmup and 100 measured queries per node under --quick (else 300
  /// and 200), the thread count and the observability knobs.
  experiments::ExperimentConfig BaseConfig() const {
    experiments::ExperimentConfig cfg;
    cfg.seed = base_seed;
    cfg.warmup_queries_per_node = quick ? 100 : 300;
    cfg.measure_queries_per_node = quick ? 100 : 200;
    cfg.threads = threads;
    ApplyObservability(cfg);
    return cfg;
  }
};

/// The shared flags that shape lookup runs: the thread pool, seed
/// averaging, the fault plan, the latency model, route traces and the
/// profiler. Drivers that run no lookup experiment refuse them.
inline constexpr std::string_view kLookupRunFlags[] = {
    "--threads", "--seeds", "--fault-", "--no-fault-retries",
    "--latency-", "--trace-", "--profile"};

/// kLookupRunFlags without `--threads`: refused by the sweep drivers that
/// shard their own work over a thread pool but apply none of the other
/// lookup-run knobs (freq_sketch, scale_frontier).
inline constexpr std::span<const std::string_view> kLookupRunFlagsButThreads =
    std::span(kLookupRunFlags).subspan(1);

/// One row of a figure table. Two improvement columns are reported:
///  * `improvement_pct`, the paper's metric (vs the frequency-oblivious
///    baseline), and
///  * `improvement_vs_none_pct` (vs core-only routing), because our
///    oblivious baseline is measurably stronger than the paper's (its
///    random per-slice pointers already act as extra fingers); against
///    core-only routing the optimal selection matches the paper's headline
///    factors closely. See EXPERIMENTS.md.
struct FigureRow {
  std::string label;
  double none_hops = 0;
  double oblivious_hops = 0;
  double optimal_hops = 0;
  double improvement_pct = 0;
  double improvement_vs_none_pct = 0;
  double success_rate = 1.0;
  std::string paper_reference;  ///< What the paper reports for this point.
  /// Full telemetry of the last successful seed (per-phase timings, hop
  /// percentiles, aux-hit rates, cost-audit residuals). The averaged
  /// columns above stay seed-averaged; this is the drill-down sample.
  std::optional<experiments::Comparison> detail;
};

inline void PrintFigureHeader(const char* title, const char* label_name) {
  std::printf("%s\n", title);
  std::printf("%-22s %9s %9s %9s %9s %9s %8s   %s\n", label_name, "core-only",
              "oblivious", "optimal", "impr/obl", "impr/core", "success",
              "paper(impr/obl)");
  std::printf(
      "-----------------------------------------------------------------"
      "-----------------------------------------\n");
}

inline void PrintFigureRow(const FigureRow& row) {
  std::printf("%-22s %8.3f %9.3f %9.3f %8.1f%% %8.1f%% %7.1f%%   %s\n",
              row.label.c_str(), row.none_hops, row.oblivious_hops,
              row.optimal_hops, row.improvement_pct,
              row.improvement_vs_none_pct, 100.0 * row.success_rate,
              row.paper_reference.c_str());
}

/// Averages a comparison metric over several seeds.
template <typename CompareFn>
FigureRow AveragedRow(const BenchArgs& args, CompareFn compare,
                      std::string label, std::string paper_reference) {
  FigureRow row;
  row.label = std::move(label);
  row.paper_reference = std::move(paper_reference);
  row.success_rate = 0.0;
  int ok_runs = 0;
  for (int s = 0; s < args.seeds; ++s) {
    auto cmp = compare(args.base_seed + static_cast<uint64_t>(s));
    if (!cmp.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   cmp.status().ToString().c_str());
      continue;
    }
    ++ok_runs;
    row.none_hops += cmp->none.avg_hops;
    row.oblivious_hops += cmp->oblivious.avg_hops;
    row.optimal_hops += cmp->optimal.avg_hops;
    row.success_rate += cmp->optimal.success_rate;
    row.detail = std::move(*cmp);
  }
  if (ok_runs > 0) {
    row.none_hops /= ok_runs;
    row.oblivious_hops /= ok_runs;
    row.optimal_hops /= ok_runs;
    row.success_rate /= ok_runs;
    row.improvement_pct = experiments::ImprovementPct(row.oblivious_hops,
                                                      row.optimal_hops);
    row.improvement_vs_none_pct =
        experiments::ImprovementPct(row.none_hops, row.optimal_hops);
  }
  return row;
}

/// Accumulates the sampled route traces carried by each row's detail
/// comparison and writes them as JSONL on request — the bench-driver
/// counterpart of sim_cli's --trace-out. Traces only exist when a sampling
/// period is active (--trace-sample, or --trace-out's default of 100).
class TraceLog {
 public:
  /// Appends every sampled trace of the row's detail comparison (the last
  /// successful seed), each line naming `system`, the overlay the row ran
  /// on. No-op for rows without detail.
  void AddRow(const FigureRow& row, const std::string& system) {
    if (!row.detail.has_value()) return;
    const std::pair<const char*, const experiments::RunResult*> runs[] = {
        {"none", &row.detail->none},
        {"oblivious", &row.detail->oblivious},
        {"optimal", &row.detail->optimal}};
    for (const auto& [policy, run] : runs) {
      for (const RouteTrace& trace : run->traces) {
        lines_ += experiments::TraceJsonLine(system, policy, trace);
        lines_ += '\n';
        ++count_;
      }
    }
  }

  /// Returns a process exit code: 0 on success or when no output was
  /// requested, 1 when the write failed.
  int WriteIfRequested(const BenchArgs& args) {
    if (args.trace_out.empty()) return 0;
    Status st = experiments::WriteStringToFile(args.trace_out, lines_);
    if (!st.ok()) {
      std::fprintf(stderr, "trace-out failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("%zu route traces written to %s\n", count_,
                args.trace_out.c_str());
    return 0;
  }

 private:
  std::string lines_;
  size_t count_ = 0;
};

/// Accumulates figure rows into a schema-versioned JSON document:
///
///   {"schema_version": 2, "generator": ..., "kind": "figure",
///    "system": ..., "seeds": N, "base_seed": S, "quick": bool,
///    "rows": [{"label": ..., "mode": ..., "config": {...},
///              averaged columns..., "detail": <comparison|null>}]}
///
/// Rows are added unconditionally (cheap); `WriteIfRequested` is a no-op
/// unless `--json-out` was passed. The per-row `config` is the one used
/// for the row's base seed; `detail` carries the last seed's full
/// telemetry (phase timings, hop p50/p95/p99, aux-hit rate, Eq. 1 audit).
class FigureJson {
 public:
  FigureJson(const std::string& generator, const std::string& system,
             const BenchArgs& args) {
    writer_.BeginObject();
    writer_.Key("schema_version");
    writer_.Int(experiments::kTelemetrySchemaVersion);
    writer_.Key("generator");
    writer_.String(generator);
    writer_.Key("kind");
    writer_.String("figure");
    writer_.Key("system");
    writer_.String(system);
    writer_.Key("seeds");
    writer_.Int(args.seeds);
    writer_.Key("base_seed");
    writer_.UInt(args.base_seed);
    writer_.Key("quick");
    writer_.Bool(args.quick);
    writer_.Key("rows");
    writer_.BeginArray();
  }

  void AddRow(const FigureRow& row, const std::string& mode,
              const experiments::ExperimentConfig& config) {
    writer_.BeginObject();
    writer_.Key("label");
    writer_.String(row.label);
    writer_.Key("mode");
    writer_.String(mode);
    writer_.Key("config");
    experiments::WriteConfigJson(writer_, config);
    writer_.Key("none_hops");
    writer_.Double(row.none_hops);
    writer_.Key("oblivious_hops");
    writer_.Double(row.oblivious_hops);
    writer_.Key("optimal_hops");
    writer_.Double(row.optimal_hops);
    writer_.Key("improvement_pct");
    writer_.Double(row.improvement_pct);
    writer_.Key("improvement_vs_none_pct");
    writer_.Double(row.improvement_vs_none_pct);
    writer_.Key("success_rate");
    writer_.Double(row.success_rate);
    writer_.Key("paper_reference");
    writer_.String(row.paper_reference);
    writer_.Key("detail");
    if (row.detail.has_value()) {
      experiments::WriteComparisonJson(writer_, *row.detail, config);
    } else {
      writer_.Null();
    }
    writer_.EndObject();
  }

  /// Returns a process exit code: 0 on success or when no output was
  /// requested, 1 when the write failed.
  int WriteIfRequested(const BenchArgs& args) {
    if (args.json_out.empty()) return 0;
    writer_.EndArray();
    // Phase-profiler report (--profile), absent by default so committed
    // figure documents are unaffected.
    if (Profiler::Global().enabled()) {
      writer_.Key("profile");
      Profiler::Global().WriteJson(writer_);
    }
    writer_.EndObject();
    Status st = experiments::WriteStringToFile(args.json_out,
                                               writer_.TakeString() + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "json-out failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("figure telemetry written to %s\n", args.json_out.c_str());
    return 0;
  }

 private:
  JsonWriter writer_;
};

}  // namespace peercache::bench

#endif  // PEERCACHE_BENCH_BENCH_UTIL_H_
