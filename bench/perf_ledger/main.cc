// perf_ledger: runs one benchmark workload for a fixed wall-clock budget
// and prints one JSON document on the last line of stdout: the median,
// min and max of every metric, the run's deterministic outputs, its
// correctness gates and a machine descriptor. bench/perf_ledger/run.py
// builds and drives it; see bench/perf_ledger/README.md.
//
//   perf_ledger --workload paper_stable|churn_maintain|route_scale|
//                          cluster_actor
//               [--seed S] [--seconds T] [--trace 0|1] [--threads 1|2]
//               [--scratch DIR] [--trace-out FILE]
//
// Exit status: 0 when every gate passed, 1 when one failed (the document is
// still printed), 2 on bad arguments or a failed workload (no document).

#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json_writer.h"
#include "common/status.h"
#include "ledger.h"

namespace {

using perf_ledger::Options;
using perf_ledger::Report;
using perf_ledger::SpanLog;
using peercache::JsonWriter;
using peercache::Status;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_stable|churn_maintain|route_scale|"
               "cluster_actor [--seed S] [--seconds T] [--trace 0|1] "
               "[--threads 1|2] [--scratch DIR] [--trace-out FILE]\n",
               argv0);
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  out = v;
  return true;
}

void WriteMachine(JsonWriter& w) {
  perf_ledger::HwCounters probe;
  w.BeginObject();
  w.Key("nproc");
  w.Int(sysconf(_SC_NPROCESSORS_ONLN));
  w.Key("compiler");
#if defined(__clang__)
  w.String("clang " __clang_version__);
#else
  w.String("gcc " __VERSION__);
#endif
  w.Key("build_type");
  w.String(PERF_LEDGER_BUILD_TYPE);
  w.Key("perf_event_open");
  w.BeginObject();
  w.Key("available");
  w.Bool(probe.ok());
  w.Key("error");
  w.String(probe.error());
  w.EndObject();
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.scratch_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string flag = argv[i];
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, number)) {
      opt.seed = number;
    } else if (flag == "--seconds" && ParseUnsigned(value, number) &&
               number >= 1 && number <= 600) {
      opt.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && ParseUnsigned(value, number) &&
               number <= 1) {
      opt.trace = number == 1;
    } else if (flag == "--threads" && ParseUnsigned(value, number) &&
               number >= 1 && number <= 2) {
      opt.threads = static_cast<int>(number);
    } else if (flag == "--scratch") {
      opt.scratch_dir = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }

  Report report;
  SpanLog spans;
  Status st;
  if (opt.workload == "paper_stable") {
    st = perf_ledger::RunPaperStable(opt, report, spans);
  } else if (opt.workload == "churn_maintain") {
    st = perf_ledger::RunChurnMaintain(opt, report, spans);
  } else if (opt.workload == "route_scale") {
    st = perf_ledger::RunRouteScale(opt, report, spans);
  } else if (opt.workload == "cluster_actor") {
    st = perf_ledger::RunClusterActor(opt, report, spans);
  } else {
    return Usage(argv[0]);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perf_ledger: %s failed: %s\n", opt.workload.c_str(),
                 st.ToString().c_str());
    return 2;
  }

  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  report.e2e.Add("peak_rss_mb", "MiB",
                 static_cast<double>(usage.ru_maxrss) / 1024.0);

  if (opt.trace && !opt.trace_out.empty()) {
    JsonWriter t;
    t.BeginObject();
    t.Key("workload");
    t.String(opt.workload);
    t.Key("seed");
    t.UInt(opt.seed);
    t.Key("spans");
    spans.WriteJson(t);
    t.EndObject();
    std::FILE* f = std::fopen(opt.trace_out.c_str(), "w");
    if (f == nullptr || std::fputs(t.str().c_str(), f) < 0 ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "perf_ledger: cannot write %s\n",
                   opt.trace_out.c_str());
      return 2;
    }
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("workload");
  w.String(opt.workload);
  w.Key("seed");
  w.UInt(opt.seed);
  w.Key("seconds");
  w.Double(opt.seconds);
  w.Key("trace");
  w.Bool(opt.trace);
  w.Key("threads");
  w.Int(opt.threads);
  w.Key("units");
  w.UInt(report.untraced_unit_s.size() + report.traced_unit_s.size());
  w.Key("machine");
  WriteMachine(w);
  w.Key("attempted");
  w.UInt(report.attempted);
  w.Key("failed");
  w.UInt(report.failed);
  w.Key("gates");
  w.BeginObject();
  for (const auto& [name, gate] : report.gates) {
    w.Key(name);
    w.BeginObject();
    w.Key("ok");
    w.Bool(gate.ok);
    w.Key("checks");
    w.UInt(gate.checks);
    w.Key("detail");
    w.String(gate.detail);
    w.EndObject();
  }
  w.EndObject();
  w.Key("deterministic");
  w.BeginObject();
  for (const auto& [name, text] : report.deterministic) {
    w.Key(name);
    w.String(text);
  }
  w.EndObject();
  w.Key("e2e");
  report.e2e.WriteJson(w);
  w.Key("layer");
  report.layer.WriteJson(w);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return report.AllGatesPass() ? 0 : 1;
}
