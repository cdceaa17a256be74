// The two experiment-engine workloads.
//
// paper_stable: the paper's Sec. VI-B stable experiment (CompareStable:
// core-only, oblivious and optimal runs on identical seeds) for every
// overlay, with flatter popularity than the paper's alpha = 1.2 so each
// node's selector input is large and auxiliary selection is a large share
// of the run.
//
// churn_maintain: the Sec. VI-C churn experiment with the optimal policy on
// the incremental maintainers (FreqMode::kObserved), at a query rate high
// enough to time: the same selector layer used incrementally, beside
// membership writes and lookups. A from-scratch selector speedup should
// move paper_stable and not this workload; a maintainer speedup the
// reverse.

#include <cmath>
#include <string>

#include "common/profiler.h"
#include "flow.h"

namespace perf_ledger {
namespace {

using peercache::Profiler;

ex::ExperimentConfig PaperConfig(const Options& opt) {
  ex::ExperimentConfig config;
  config.n_nodes = 1024;
  config.k = 14;
  config.alpha = 0.9;
  config.n_items = 32768;
  config.n_popularity_lists = 5;
  config.warmup_queries_per_node = 400;
  config.measure_queries_per_node = 50;
  config.seed = opt.seed;
  config.threads = opt.threads;
  return config;
}

ex::ChurnConfig ChurnSchedule() {
  ex::ChurnConfig churn;
  churn.mean_lifetime_s = 600.0;
  churn.queries_per_s = 100.0;
  churn.warmup_s = 600.0;
  churn.measure_s = 600.0;
  return churn;
}

/// Run-wide fold of what a run decided: its auxiliary sets and hop counts.
uint64_t RunChecksum(const ex::RunResult& r) {
  uint64_t acc = Fold(DoubleBits(r.avg_hops), r.queries);
  for (const auto& [id, aux] : r.node_auxiliaries) {
    acc = Fold(acc, id);
    for (uint64_t a : aux) acc = Fold(acc, a);
  }
  for (int h = 0; h <= r.hop_histogram.max_value(); ++h) {
    acc = Fold(acc, r.hop_histogram.BucketCount(h));
  }
  return acc;
}

double Successes(const ex::RunResult& r) {
  return std::round(r.success_rate * static_cast<double>(r.queries));
}

/// Copies the engine's own phase totals (the global Profiler) into the
/// span log under the innermost open span, renamed into ledger layers.
void AddProfile(SpanLog& spans,
                const std::vector<std::pair<std::string, std::string>>& map) {
  for (const Profiler::Span& p : Profiler::Global().Report()) {
    for (const auto& [engine_name, ledger_name] : map) {
      if (p.name == engine_name) {
        spans.AddAggregate(ledger_name, p.seconds, p.calls);
      }
    }
  }
}

}  // namespace

Status RunPaperStable(const Options& opt, Report& report, SpanLog& spans) {
  const ex::ExperimentConfig config = PaperConfig(opt);
  Status st = RunUnits(opt, 3, report, spans, [&](uint64_t, bool traced) {
    Profiler::Global().Enable(traced);
    std::map<std::string, std::string> det;
    double setup_s = 0, hops = 0, improvement = 0, queries = 0, successes = 0;
    Status s = ForEachOverlay([&]<typename P>() -> Status {
      SpanLog::Scope span(spans, "engine.compare_stable");
      Profiler::Global().Reset();
      const auto start = Clock::now();
      Result<ex::Comparison> cmp = ex::CompareStable<P>(config);
      const double wall = SecondsSince(start);
      if (!cmp.ok()) return cmp.status();
      const ex::Comparison& comparison = cmp.value();
      const ex::RunResult& opt_run = comparison.optimal;
      double phases = 0, measured = 0, measure_s = 0;
      for (const ex::RunResult* r :
           {&comparison.none, &comparison.oblivious, &opt_run}) {
        phases += r->warmup_seconds + r->selection_seconds + r->measure_seconds;
        measured += static_cast<double>(r->queries);
        measure_s += r->measure_seconds;
        report.attempted += r->queries;
      }
      setup_s += wall - phases;
      if (traced) {
        AddProfile(spans, {{"stable.build", "build.stable"},
                           {"stable.warmup", "warmup.stable"},
                           {"stable.selection", "select.stable"},
                           {"stable.measure", "route.stable_measure"}});
      } else {
        // Over all three measurement phases: the optimal run's alone is
        // too short a timed region to be steady.
        report.e2e.Add(std::string("lookups_per_s.") + P::kName, "1/s",
                       measured / measure_s);
      }
      hops += opt_run.avg_hops;
      improvement += comparison.improvement_pct;
      queries += static_cast<double>(opt_run.queries);
      successes += Successes(opt_run);
      det[std::string("checksum.") + P::kName] =
          HexText(Fold(Fold(RunChecksum(comparison.none),
                            RunChecksum(comparison.oblivious)),
                       RunChecksum(opt_run)));
      return Status::Ok();
    });
    Profiler::Global().Enable(false);
    if (!s.ok()) return s;
    det["mean_hops"] = ExactText(hops / 3);
    det["improvement_pct"] = ExactText(improvement / 3);
    det["delivered_frac"] = ExactText(successes / queries);
    report.Repeat(det);
    if (!traced) {
      report.e2e.Add("setup_s", "s", setup_s);
      report.e2e.Add("mean_hops", "hops", hops / 3);
      report.e2e.Add("delivered_frac", "ratio", successes / queries);
    }
    return Status::Ok();
  });
  if (!st.ok() || !opt.trace) return st;
  AddTraceMetrics(spans, {"select"}, {}, report);
  LayerConfig lc;
  lc.config = config;
  return RunLayerPass(lc, opt, report);
}

Status RunChurnMaintain(const Options& opt, Report& report, SpanLog& spans) {
  const ex::ExperimentConfig config = PaperConfig(opt);
  const ex::ChurnConfig churn = ChurnSchedule();
  // The event-loop total is the engine's own phase timer and set-up time is
  // measured against it, so the Profiler runs in every unit.
  Profiler::Global().Enable(true);
  Status st = RunUnits(opt, 3, report, spans, [&](uint64_t, bool traced) {
    std::map<std::string, std::string> det;
    double setup_s = 0, hops = 0, queries = 0, successes = 0;
    Status s = ForEachOverlay([&]<typename P>() -> Status {
      SpanLog::Scope span(spans, "engine.run_churn");
      Profiler::Global().Reset();
      const auto start = Clock::now();
      Result<ex::RunResult> run =
          ex::RunChurn<P>(config, churn, ex::SelectorKind::kOptimal);
      const double wall = SecondsSince(start);
      if (!run.ok()) return run.status();
      double event_loop = 0;
      for (const Profiler::Span& p : Profiler::Global().Report()) {
        if (p.name == "churn.event_loop") event_loop = p.seconds;
      }
      setup_s += wall - event_loop;
      report.attempted += run->queries;
      if (traced) {
        const int loop = spans.AddAggregate("sim.churn_event_loop",
                                            event_loop, 1);
        for (const Profiler::Span& p : Profiler::Global().Report()) {
          if (p.name == "churn.stabilize") {
            spans.AddAggregate("stabilize.churn", p.seconds, p.calls, loop);
          } else if (p.name == "churn.recompute") {
            spans.AddAggregate("maintain.churn", p.seconds, p.calls, loop);
          }
        }
      } else {
        report.e2e.Add(std::string("lookups_per_s.") + P::kName, "1/s",
                       static_cast<double>(run->queries) / wall);
      }
      uint64_t deltas = 0;
      for (const ex::MaintenanceRoundStats& r : run->maintenance_rounds) {
        deltas += r.peer_joins + r.peer_leaves + r.freq_deltas + r.core_deltas;
      }
      report.Check(!run->maintenance_rounds.empty(), "maintainers_ran",
                   std::string(P::kName) + " ran no maintenance round");
      hops += run->avg_hops;
      queries += static_cast<double>(run->queries);
      successes += Successes(*run);
      det[std::string("checksum.") + P::kName] =
          HexText(Fold(RunChecksum(*run), deltas));
      return Status::Ok();
    });
    if (!s.ok()) return s;
    det["mean_hops"] = ExactText(hops / 3);
    det["delivered_frac"] = ExactText(successes / queries);
    report.Repeat(det);
    if (!traced) {
      report.e2e.Add("setup_s", "s", setup_s);
      report.e2e.Add("mean_hops", "hops", hops / 3);
      report.e2e.Add("delivered_frac", "ratio", successes / queries);
    }
    return Status::Ok();
  });
  Profiler::Global().Enable(false);
  if (!st.ok() || !opt.trace) return st;
  AddTraceMetrics(spans, {"maintain", "stabilize"}, {}, report);
  LayerConfig lc;
  lc.config = config;
  return RunLayerPass(lc, opt, report);
}

}  // namespace perf_ledger
