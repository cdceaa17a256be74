// Command-line driver for the full experiment harness: run any paper
// configuration (system, size, budget, skew, churn) from the shell.
//
//   $ ./sim_cli --system chord --n 512 --k 9 --alpha 1.2
//   $ ./sim_cli --system chord --churn --n 256
//   $ ./sim_cli --system pastry --n 1024 --k 20 --alpha 0.91
//   $ ./sim_cli --system kademlia --n 512 --fault-drop 0.2
//
// Prints the three-way policy comparison and the paper's improvement
// metric, plus the hop histogram of the optimal run. With --json-out the
// same run also emits a schema-versioned telemetry document, and with
// --trace-out the sampled route traces land in a JSONL file.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "common/bits.h"
#include "common/latency.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/thread_pool.h"
#include "experiments/generic_experiment.h"
#include "experiments/json_report.h"

using namespace peercache;
using namespace peercache::experiments;

namespace {

struct Args {
  std::string system = "chord";
  bool churn = false;
  int n = 512;
  int k = -1;  // default: log2(n)
  double alpha = 1.2;
  int items = -1;  // default: n
  int lists = -1;  // default: 5 for chord, 1 for pastry/kademlia
  uint64_t seed = 1;
  double duration_s = 2400;
  int threads = 0;  // 0 = hardware concurrency, 1 = serial
  std::string json_out;
  std::string trace_out;
  int trace_sample = 0;  // 0 = pick a default when --trace-out is given
  int audit_period = 4;
  int freq_sketch_top = 0;  // 0 = exact tables (sketch mode off)
  int sketch_width = 64;
  int sketch_depth = 4;
  std::string drift_kind = "none";
  int drift_period = 0;
  double drift_fraction = 0.25;
  double drift_boost = 0.3;
  uint64_t drift_seed = 97;
  double budget_gamma = 0.0;
  uint64_t budget_seed = 7;
  peercache::fault::FaultConfig faults;
  peercache::latency::LatencyConfig latency;
  std::string latency_matrix;
  bool profile = false;
  bool report_memory = false;

  static void Usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--system chord|pastry|kademlia] [--churn] [--n N]\n"
        "          [--k K]\n"
        "          [--alpha A] [--items I] [--lists L] [--seed S]\n"
        "          [--duration SECONDS] [--threads T]\n"
        "          [--json-out FILE] [--trace-out FILE] [--trace-sample P]\n"
        "          [--audit-period N]\n"
        "          [--freq-sketch TOP] [--sketch-width W] [--sketch-depth D]\n"
        "          [--drift none|rank-shuffle|flash-crowd] [--drift-period Q]\n"
        "          [--drift-fraction F] [--drift-boost B] [--drift-seed S]\n"
        "          [--budget-gamma G] [--budget-seed S]\n"
        "          [--fault-drop P] [--fault-fail P] [--fault-stale P]\n"
        "          [--fault-seed S] [--fault-retries N] [--no-fault-retries]\n"
        "          [--latency-base MS] [--latency-scale MS]\n"
        "          [--latency-jitter MS] [--latency-timeout MS]\n"
        "          [--latency-seed S] [--latency-matrix FILE] [--profile]\n"
        "          [--report-memory]\n"
        "          [--log-level debug|info|warning|error]\n"
        "  --threads T       size of the persistent worker pool the\n"
        "                    warmup/selection/measure phases shard node\n"
        "                    ranges across (0 = all hardware threads,\n"
        "                    1 = serial; telemetry is byte-identical for\n"
        "                    every value)\n"
        "  --audit-period N  cross-check the churn maintainers' incremental\n"
        "                    selections against full rebuilds every Nth\n"
        "                    round (default 4, 0 = never)\n"
        "  --freq-sketch TOP bounded-memory frequency tables: TOP heavy-\n"
        "                    hitter slots (space-saving) plus a count-min\n"
        "                    sketch for the tail; 0 = exact tables (default,\n"
        "                    byte-identical to historical output). Adds a\n"
        "                    'freq_sketch' block to the telemetry document\n"
        "  --sketch-width W  count-min counters per row (default 64,\n"
        "                    rounded up to a power of two)\n"
        "  --sketch-depth D  count-min rows (default 4)\n"
        "  --drift KIND      popularity drift over the stable-mode query\n"
        "                    stream: 'rank-shuffle' (gradual churn) or\n"
        "                    'flash-crowd' (spikes); default 'none'\n"
        "  --drift-period Q  queries per node per drift epoch (required to\n"
        "                    enable drift)\n"
        "  --drift-fraction F  rank positions re-shuffled per epoch\n"
        "                    (rank-shuffle; default 0.25)\n"
        "  --drift-boost B   probability mass diverted to the flash item\n"
        "                    (flash-crowd; default 0.3)\n"
        "  --drift-seed S    seed of the drift process (default 97)\n"
        "  --budget-gamma G  redistribute the global auxiliary budget n*k\n"
        "                    across nodes proportional to capacity^G\n"
        "                    (Pareto-distributed capacities; 0 = uniform k\n"
        "                    per node, the default). Stable runs only\n"
        "  --budget-seed S   seed of the per-node capacities (default 7)\n"
        "  --json-out FILE   write a schema-versioned telemetry document\n"
        "  --trace-out FILE  write sampled route traces as JSONL\n"
        "  --trace-sample P  trace every P-th measured query per node\n"
        "                    (default 0 = off, or 100 with --trace-out)\n"
        "  --fault-drop P    per-forwarding-attempt message-drop probability\n"
        "  --fault-fail P    per-(lookup, node) fail-stop probability\n"
        "  --fault-stale P   per-(lookup, dead entry) stale-window\n"
        "                    probability (churn mode only in practice)\n"
        "  --fault-seed S    seed of the deterministic fault process\n"
        "  --fault-retries N failed attempts tolerated per node visit\n"
        "  --no-fault-retries abort on the first failed attempt\n"
        "                    (see docs/RESILIENCE.md)\n"
        "  --latency-base MS    per-hop propagation floor (enables the\n"
        "                       deterministic link-latency model)\n"
        "  --latency-scale MS   ms per unit of synthetic-coordinate distance\n"
        "                       (heterogeneity knob)\n"
        "  --latency-jitter MS  uniform per-attempt jitter upper bound\n"
        "  --latency-timeout MS time charged per failed forwarding attempt\n"
        "  --latency-seed S     seed of the coordinate/jitter hash space\n"
        "  --latency-matrix F   load measured pairwise RTTs (ping-matrix\n"
        "                       text format; unknown pairs fall back to\n"
        "                       synthetic coordinates)\n"
        "  --profile            enable the phase profiler; the report lands\n"
        "                       in the --json-out document's 'profile' block\n"
        "                       (see docs/OBSERVABILITY.md)\n"
        "  --report-memory      include the flat routing-state footprint\n"
        "                       {bytes_per_node, table_bytes, arena_bytes}\n"
        "                       as a 'memory' block in the --json-out\n"
        "                       document (see docs/OBSERVABILITY.md)\n",
        argv0);
    std::exit(2);
  }

  static Args Parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      auto next = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s needs a value\n", flag);
          Usage(argv[0]);
        }
        return argv[++i];
      };
      if (!std::strcmp(argv[i], "--system")) {
        a.system = next("--system");
      } else if (!std::strcmp(argv[i], "--churn")) {
        a.churn = true;
      } else if (!std::strcmp(argv[i], "--n")) {
        a.n = std::atoi(next("--n"));
      } else if (!std::strcmp(argv[i], "--k")) {
        a.k = std::atoi(next("--k"));
      } else if (!std::strcmp(argv[i], "--alpha")) {
        a.alpha = std::atof(next("--alpha"));
      } else if (!std::strcmp(argv[i], "--items")) {
        a.items = std::atoi(next("--items"));
      } else if (!std::strcmp(argv[i], "--lists")) {
        a.lists = std::atoi(next("--lists"));
      } else if (!std::strcmp(argv[i], "--seed")) {
        a.seed = static_cast<uint64_t>(std::atoll(next("--seed")));
      } else if (!std::strcmp(argv[i], "--duration")) {
        a.duration_s = std::atof(next("--duration"));
      } else if (!std::strcmp(argv[i], "--threads")) {
        a.threads = std::atoi(next("--threads"));
      } else if (!std::strcmp(argv[i], "--json-out")) {
        a.json_out = next("--json-out");
      } else if (!std::strcmp(argv[i], "--trace-out")) {
        a.trace_out = next("--trace-out");
      } else if (!std::strcmp(argv[i], "--trace-sample")) {
        a.trace_sample = std::atoi(next("--trace-sample"));
      } else if (!std::strcmp(argv[i], "--audit-period")) {
        a.audit_period = std::atoi(next("--audit-period"));
      } else if (!std::strcmp(argv[i], "--freq-sketch")) {
        a.freq_sketch_top = std::atoi(next("--freq-sketch"));
      } else if (!std::strcmp(argv[i], "--sketch-width")) {
        a.sketch_width = std::atoi(next("--sketch-width"));
      } else if (!std::strcmp(argv[i], "--sketch-depth")) {
        a.sketch_depth = std::atoi(next("--sketch-depth"));
      } else if (!std::strcmp(argv[i], "--drift")) {
        a.drift_kind = next("--drift");
      } else if (!std::strcmp(argv[i], "--drift-period")) {
        a.drift_period = std::atoi(next("--drift-period"));
      } else if (!std::strcmp(argv[i], "--drift-fraction")) {
        a.drift_fraction = std::atof(next("--drift-fraction"));
      } else if (!std::strcmp(argv[i], "--drift-boost")) {
        a.drift_boost = std::atof(next("--drift-boost"));
      } else if (!std::strcmp(argv[i], "--drift-seed")) {
        a.drift_seed =
            static_cast<uint64_t>(std::atoll(next("--drift-seed")));
      } else if (!std::strcmp(argv[i], "--budget-gamma")) {
        a.budget_gamma = std::atof(next("--budget-gamma"));
      } else if (!std::strcmp(argv[i], "--budget-seed")) {
        a.budget_seed =
            static_cast<uint64_t>(std::atoll(next("--budget-seed")));
      } else if (!std::strcmp(argv[i], "--fault-drop")) {
        a.faults.drop_prob = std::atof(next("--fault-drop"));
      } else if (!std::strcmp(argv[i], "--fault-fail")) {
        a.faults.fail_prob = std::atof(next("--fault-fail"));
      } else if (!std::strcmp(argv[i], "--fault-stale")) {
        a.faults.stale_prob = std::atof(next("--fault-stale"));
      } else if (!std::strcmp(argv[i], "--fault-seed")) {
        a.faults.seed =
            static_cast<uint64_t>(std::atoll(next("--fault-seed")));
      } else if (!std::strcmp(argv[i], "--fault-retries")) {
        a.faults.max_retries = std::atoi(next("--fault-retries"));
      } else if (!std::strcmp(argv[i], "--no-fault-retries")) {
        a.faults.retry = false;
      } else if (!std::strcmp(argv[i], "--latency-base")) {
        a.latency.base_rtt_ms = std::atof(next("--latency-base"));
      } else if (!std::strcmp(argv[i], "--latency-scale")) {
        a.latency.coord_scale_ms = std::atof(next("--latency-scale"));
      } else if (!std::strcmp(argv[i], "--latency-jitter")) {
        a.latency.jitter_ms = std::atof(next("--latency-jitter"));
      } else if (!std::strcmp(argv[i], "--latency-timeout")) {
        a.latency.timeout_ms = std::atof(next("--latency-timeout"));
      } else if (!std::strcmp(argv[i], "--latency-seed")) {
        a.latency.seed =
            static_cast<uint64_t>(std::atoll(next("--latency-seed")));
      } else if (!std::strcmp(argv[i], "--latency-matrix")) {
        a.latency_matrix = next("--latency-matrix");
      } else if (!std::strcmp(argv[i], "--profile")) {
        a.profile = true;
      } else if (!std::strcmp(argv[i], "--report-memory")) {
        a.report_memory = true;
      } else if (!std::strcmp(argv[i], "--log-level")) {
        LogLevel level;
        if (!ParseLogLevel(next("--log-level"), &level)) {
          std::fprintf(stderr, "unknown log level\n");
          Usage(argv[0]);
        }
        SetLogLevel(level);
      } else {
        Usage(argv[0]);
      }
    }
    if (a.system != "chord" && a.system != "pastry" &&
        a.system != "kademlia") {
      Usage(argv[0]);
    }
    // The churn maintainers keep uniform k, so heterogeneous budgets would
    // give the optimal and oblivious arms unequal budgets.
    if (a.churn && a.budget_gamma > 0.0) {
      std::fprintf(stderr, "--budget-gamma applies to stable runs only\n");
      Usage(argv[0]);
    }
    if (a.freq_sketch_top < 0 || a.sketch_width < 2 || a.sketch_depth < 1) {
      Usage(argv[0]);
    }
    workload::DriftKind parsed_kind;
    if (!workload::ParseDriftKind(a.drift_kind, &parsed_kind)) Usage(argv[0]);
    if (a.n < 2) Usage(argv[0]);
    if (a.trace_sample == 0 && !a.trace_out.empty()) a.trace_sample = 100;
    return a;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Args args = Args::Parse(argc, argv);

  ExperimentConfig cfg;
  cfg.n_nodes = args.n;
  cfg.k = args.k > 0 ? args.k : CeilLog2(static_cast<uint64_t>(args.n));
  cfg.alpha = args.alpha;
  cfg.n_items =
      args.items > 0 ? static_cast<size_t>(args.items)
                     : static_cast<size_t>(args.n);
  cfg.n_popularity_lists =
      args.lists > 0 ? args.lists : (args.system == "chord" ? 5 : 1);
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  cfg.trace_sample_period = args.trace_sample;
  cfg.maintenance_audit_period = args.audit_period;
  cfg.faults = args.faults;
  cfg.latency = args.latency;
  cfg.report_memory = args.report_memory;
  if (args.freq_sketch_top > 0) {
    cfg.freq_sketch.top_capacity = static_cast<size_t>(args.freq_sketch_top);
    cfg.freq_sketch.cm_width = static_cast<size_t>(args.sketch_width);
    cfg.freq_sketch.cm_depth = args.sketch_depth;
  }
  (void)workload::ParseDriftKind(args.drift_kind, &cfg.drift.kind);
  cfg.drift.period = args.drift_period;
  cfg.drift.shuffle_fraction = args.drift_fraction;
  cfg.drift.flash_boost = args.drift_boost;
  cfg.drift.seed = args.drift_seed;
  cfg.budget_gamma = args.budget_gamma;
  cfg.budget_seed = args.budget_seed;
  if (!args.latency_matrix.empty()) {
    Result<latency::PingMatrix> m =
        latency::LoadPingMatrixFile(args.latency_matrix);
    if (!m.ok()) {
      std::fprintf(stderr, "latency-matrix failed: %s\n",
                   m.status().ToString().c_str());
      return 1;
    }
    cfg.latency_matrix = std::move(m).value();
  }
  if (args.profile) Profiler::Global().Enable(true);

  std::printf(
      "%s %s: n=%d k=%d alpha=%.2f items=%zu lists=%d seed=%llu threads=%d\n\n",
      args.system.c_str(), args.churn ? "churn" : "stable", cfg.n_nodes, cfg.k,
      cfg.alpha, cfg.n_items, cfg.n_popularity_lists,
      static_cast<unsigned long long>(cfg.seed), ResolveThreads(cfg.threads));

  Result<Comparison> cmp = [&]() -> Result<Comparison> {
    if (args.system == "chord") {
      if (!args.churn) return CompareStable<ChordPolicy>(cfg);
      ChurnConfig churn;
      churn.warmup_s = args.duration_s / 2;
      churn.measure_s = args.duration_s / 2;
      return CompareChurn<ChordPolicy>(cfg, churn);
    }
    if (args.system == "kademlia") {
      if (!args.churn) return CompareStable<KademliaPolicy>(cfg);
      ChurnConfig churn;
      churn.warmup_s = args.duration_s / 2;
      churn.measure_s = args.duration_s / 2;
      return CompareChurn<KademliaPolicy>(cfg, churn);
    }
    if (!args.churn) return CompareStable<PastryPolicy>(cfg);
    ChurnConfig churn;
    churn.warmup_s = args.duration_s / 2;
    churn.measure_s = args.duration_s / 2;
    return CompareChurn<PastryPolicy>(cfg, churn);
  }();

  if (!cmp.ok()) {
    std::fprintf(stderr, "run failed: %s\n", cmp.status().ToString().c_str());
    return 1;
  }

  std::printf("%-22s %10s %10s\n", "policy", "avg hops", "success");
  std::printf("%s\n", std::string(46, '-').c_str());
  std::printf("%-22s %10.3f %9.1f%%\n", "core-only", cmp->none.avg_hops,
              100 * cmp->none.success_rate);
  std::printf("%-22s %10.3f %9.1f%%\n", "oblivious auxiliaries",
              cmp->oblivious.avg_hops, 100 * cmp->oblivious.success_rate);
  std::printf("%-22s %10.3f %9.1f%%\n", "optimal auxiliaries",
              cmp->optimal.avg_hops, 100 * cmp->optimal.success_rate);
  std::printf("\nimprovement vs oblivious (paper's metric): %.1f%%\n",
              cmp->improvement_pct);
  std::printf("improvement vs core-only:                  %.1f%%\n",
              cmp->improvement_vs_none_pct);
  std::printf("optimal hop distribution: %s\n",
              cmp->optimal.hop_histogram.Summary().c_str());
  std::printf("optimal-run phase times: warmup %.3fs selection %.3fs "
              "measure %.3fs\n",
              cmp->optimal.warmup_seconds, cmp->optimal.selection_seconds,
              cmp->optimal.measure_seconds);
  if (cfg.faults.enabled()) {
    const auto& r = cmp->optimal.resilience;
    std::printf(
        "resilience (optimal run): delivered %llu/%llu (%.2f%%), "
        "retries %llu (drop %llu, fail-stop %llu, stale %llu), "
        "budget-exhausted %llu, evictions %llu\n",
        static_cast<unsigned long long>(r.delivered),
        static_cast<unsigned long long>(r.lookups), 100.0 * r.SuccessRate(),
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.dropped_forwards),
        static_cast<unsigned long long>(r.failstop_skips),
        static_cast<unsigned long long>(r.stale_forwards),
        static_cast<unsigned long long>(r.budget_exhausted),
        static_cast<unsigned long long>(r.dead_entry_evictions));
  }
  if (cfg.latency.enabled()) {
    const LogHistogram& h = cmp->optimal.latency_histogram;
    std::printf(
        "latency (optimal run): p50 %.3fms p90 %.3fms p99 %.3fms "
        "p99.9 %.3fms (mean %.3fms over %llu lookups)\n",
        h.Percentile(0.50), h.Percentile(0.90), h.Percentile(0.99),
        h.Percentile(0.999), h.Mean(),
        static_cast<unsigned long long>(h.count()));
  }

  if (!args.json_out.empty()) {
    const std::string doc = ComparisonDocument(
        "sim_cli", args.system, args.churn ? "churn" : "stable", cfg, *cmp);
    Status st = WriteStringToFile(args.json_out, doc + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "json-out failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("telemetry written to %s\n", args.json_out.c_str());
  }

  if (!args.trace_out.empty()) {
    std::string lines;
    const std::pair<const char*, const RunResult*> runs[] = {
        {"none", &cmp->none},
        {"oblivious", &cmp->oblivious},
        {"optimal", &cmp->optimal}};
    size_t n_traces = 0;
    for (const auto& [policy, run] : runs) {
      for (const RouteTrace& trace : run->traces) {
        lines += TraceJsonLine(args.system, policy, trace);
        lines += '\n';
        ++n_traces;
      }
    }
    Status st = WriteStringToFile(args.trace_out, lines);
    if (!st.ok()) {
      std::fprintf(stderr, "trace-out failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("%zu route traces written to %s\n", n_traces,
                args.trace_out.c_str());
  }
  return 0;
}
