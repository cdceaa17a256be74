// Fault-resilience sweep (docs/RESILIENCE.md): routes the stable n = 1024
// Chord, Pastry and Kademlia workloads under increasing per-attempt
// message-drop probability, with the resilient retry policy on and off, and
// reports the delivery rate and the retry overhead (extra hop-budget spent
// on failed attempts).
//
// The headline claim this driver demonstrates — and the fault-injection
// test suite asserts — is that at a 20% per-attempt drop rate the retry
// policy keeps lookup success at or above 99%, while the no-retry baseline
// degrades to roughly the per-route survival probability (~0.8^hops).
//
//   $ ./fault_resilience                 # full sweep (n = 1024)
//   $ ./fault_resilience --quick         # n = 256 smoke run
//   $ ./fault_resilience --json-out f.json
//   $ ./fault_resilience --corpus-out results/fault_corpus.json
//
// --corpus-out regenerates the committed fault-corpus document replayed by
// tests/experiments/fault_corpus_test.cc; its bytes are thread-count
// invariant, so regeneration is safe on any machine.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/bits.h"
#include "common/json_writer.h"
#include "experiments/fault_corpus.h"
#include "experiments/generic_experiment.h"

namespace {

using peercache::CeilLog2;
using peercache::JsonWriter;
using peercache::Result;
using peercache::Status;
using peercache::bench::BenchArgs;
using namespace peercache::experiments;

ExperimentConfig MakeConfig(const BenchArgs& args, int n, double drop_prob,
                            bool retry) {
  ExperimentConfig cfg;
  cfg.seed = args.base_seed;
  cfg.n_nodes = n;
  cfg.k = CeilLog2(static_cast<uint64_t>(n));
  cfg.n_items = static_cast<size_t>(n);
  cfg.warmup_queries_per_node = args.quick ? 100 : 200;
  cfg.measure_queries_per_node = args.quick ? 100 : 200;
  cfg.threads = args.threads;
  args.ApplyObservability(cfg);
  cfg.faults.drop_prob = drop_prob;
  cfg.faults.retry = retry;
  return cfg;
}

struct SweepRow {
  std::string system;
  double drop_prob = 0.0;
  bool retry = true;
  RunResult run;
};

template <typename Policy>
Status RunPoint(const BenchArgs& args, const char* system, int n,
                double drop_prob, bool retry, std::vector<SweepRow>& rows) {
  Result<RunResult> run =
      RunStable<Policy>(MakeConfig(args, n, drop_prob, retry),
                        SelectorKind::kOptimal);
  if (!run.ok()) return run.status();
  SweepRow row;
  row.system = system;
  row.drop_prob = drop_prob;
  row.retry = retry;
  row.run = std::move(*run);
  const ResilienceStats& r = row.run.resilience;
  std::printf("%-7s drop=%.2f retry=%-3s  delivered %6llu/%6llu (%6.2f%%)  "
              "retries %7llu  budget-exhausted %5llu\n",
              system, drop_prob, retry ? "on" : "off",
              static_cast<unsigned long long>(r.delivered),
              static_cast<unsigned long long>(r.lookups),
              100.0 * r.SuccessRate(),
              static_cast<unsigned long long>(r.retries),
              static_cast<unsigned long long>(r.budget_exhausted));
  rows.push_back(std::move(row));
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  // --corpus-out is this driver's extra knob; strip it before the shared
  // parser sees the argument list.
  std::string corpus_out;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--corpus-out") == 0 && i + 1 < argc) {
      corpus_out = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  BenchArgs args = BenchArgs::Parse(static_cast<int>(rest.size()),
                                    rest.data());

  if (!corpus_out.empty()) {
    Result<std::string> doc = FaultCorpusDocument(args.threads);
    if (!doc.ok()) {
      std::fprintf(stderr, "corpus generation failed: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    Status st = WriteStringToFile(corpus_out, *doc + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "corpus-out failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("fault corpus written to %s\n", corpus_out.c_str());
    return 0;
  }

  const int n = args.quick ? 256 : 1024;
  const double sweep[] = {0.05, 0.1, 0.2, 0.3};
  std::printf("Fault resilience — stable n=%d, k=log2(n), optimal policy\n",
              n);
  std::vector<SweepRow> rows;
  for (double p : sweep) {
    for (bool retry : {true, false}) {
      if (Status s = RunPoint<ChordPolicy>(args, "chord", n, p, retry, rows);
          !s.ok()) {
        std::fprintf(stderr, "chord run failed: %s\n", s.ToString().c_str());
        return 1;
      }
      if (Status s = RunPoint<PastryPolicy>(args, "pastry", n, p, retry,
                                            rows);
          !s.ok()) {
        std::fprintf(stderr, "pastry run failed: %s\n", s.ToString().c_str());
        return 1;
      }
      if (Status s = RunPoint<KademliaPolicy>(args, "kademlia", n, p, retry,
                                              rows);
          !s.ok()) {
        std::fprintf(stderr, "kademlia run failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
    }
  }

  // The acceptance gate: at 20% drops the retry policy must deliver at
  // least 99% of lookups, and it must beat the no-retry baseline by a wide
  // margin on both overlays.
  int failures = 0;
  for (const SweepRow& with : rows) {
    if (with.drop_prob != 0.2 || !with.retry) continue;
    const double retry_rate = with.run.resilience.SuccessRate();
    double baseline_rate = 1.0;
    for (const SweepRow& without : rows) {
      if (without.system == with.system && without.drop_prob == 0.2 &&
          !without.retry) {
        baseline_rate = without.run.resilience.SuccessRate();
      }
    }
    const bool ok = retry_rate >= 0.99 && retry_rate > baseline_rate + 0.05;
    std::printf("%-7s drop=0.20: retry %.4f vs no-retry %.4f  [%s]\n",
                with.system.c_str(), retry_rate, baseline_rate,
                ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  }

  if (!args.json_out.empty()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema_version");
    w.Int(kTelemetrySchemaVersion);
    w.Key("generator");
    w.String("fault_resilience");
    w.Key("kind");
    w.String("fault_sweep");
    w.Key("n_nodes");
    w.Int(n);
    w.Key("rows");
    w.BeginArray();
    for (const SweepRow& row : rows) {
      w.BeginObject();
      w.Key("system");
      w.String(row.system);
      w.Key("drop_prob");
      w.Double(row.drop_prob);
      w.Key("retry");
      w.Bool(row.retry);
      w.Key("avg_hops");
      w.Double(row.run.avg_hops);
      w.Key("resilience");
      WriteResilienceJson(w, row.run.resilience);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    Status st = WriteStringToFile(args.json_out, w.TakeString() + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "json-out failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("sweep telemetry written to %s\n", args.json_out.c_str());
  }
  return failures == 0 ? 0 : 1;
}
