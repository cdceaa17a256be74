#ifndef PERF_LEDGER_LEDGER_H_
#define PERF_LEDGER_LEDGER_H_

// Shared machinery of the perf ledger: options, metric samples, correctness
// gates, the closed unit loop every workload runs, and the ledger-side span
// log of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/status.h"

namespace perf_ledger {

using Clock = std::chrono::steady_clock;
using peercache::Status;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Checksum fold shared by every workload (the recurrence the repo's
/// lookup_throughput and batched engine use).
uint64_t Fold(uint64_t acc, uint64_t value);
uint64_t DoubleBits(double value);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 2;          ///< Worker threads; the ledger allows 1 or 2.
  std::string scratch_dir;  ///< Peer-cache files live here.
  std::string trace_out;    ///< Span document written by traced runs.
};

/// Named metric samples; each metric reports the median of its samples.
class MetricSet {
 public:
  struct Entry {
    std::string unit;
    std::vector<double> samples;
  };

  void Add(const std::string& name, const std::string& unit, double value);
  /// {"<name>": {"unit", "value" (median), "min", "max", "samples"}, ...}
  void WriteJson(peercache::JsonWriter& w) const;

 private:
  std::map<std::string, Entry> entries_;
};

/// One span: a layer call the ledger made, or (aggregate) a phase total the
/// engine's own Profiler measured inside such a call, which carries no
/// start or end of its own. A span's layer is its name up to the first '.'.
struct Span {
  std::string name;
  double start_s = 0;  ///< Seconds since the log opened; NaN for aggregates.
  double end_s = 0;
  double seconds = 0;
  int parent = -1;       ///< Index of the enclosing span, -1 at the root.
  uint64_t request = 0;  ///< Unit (closed-loop job) the span belongs to.
  uint64_t calls = 1;
  bool aggregate = false;
};

/// In-memory span log of the ledger's own thread. A disabled log records
/// nothing, so untraced units pay one branch per scope.
class SpanLog {
 public:
  class Scope {
   public:
    /// Opens `name` under the innermost open span (inheriting its request)
    /// or, at the root, as request `request`.
    Scope(SpanLog& log, const char* name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Records a phase total under `parent` (default: the innermost open
  /// span). Returns its index, -1 when disabled.
  int AddAggregate(const std::string& name, double seconds, uint64_t calls,
                   int parent = -2);

  /// Self seconds per layer over one request: each span's duration minus
  /// its children's durations (the ledger's spans are single-threaded and
  /// never overlap their siblings).
  std::map<std::string, double> LayerSeconds(uint64_t request) const;
  /// Total seconds of the spans named `name` in one request.
  double SpanSeconds(uint64_t request, const std::string& name) const;

  void WriteJson(peercache::JsonWriter& w) const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Everything one workload run hands back to main.
struct Report {
  struct Gate {
    bool ok = true;
    uint64_t checks = 0;
    std::string detail;  ///< First failure.
  };

  MetricSet e2e;    ///< End-to-end samples from untraced units.
  MetricSet layer;  ///< Per-layer values (traced runs).
  /// Deterministic outputs as exact text (ExactText / HexText), identical
  /// on every unit, at every thread count.
  std::map<std::string, std::string> deterministic;
  std::map<std::string, Gate> gates;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> untraced_unit_s;
  std::vector<double> traced_unit_s;

  void Check(bool ok, const std::string& gate, const std::string& detail);
  /// Records one unit's deterministic outputs: the first unit's become the
  /// report's, every later unit must reproduce them exactly.
  void Repeat(const std::map<std::string, std::string>& det);
  bool AllGatesPass() const;
};

/// Shortest text that reads back as exactly `value`.
std::string ExactText(double value);
/// 16 lowercase hex digits.
std::string HexText(uint64_t value);

/// User-space hardware counters of the calling thread through
/// perf_event_open: cycles, instructions and last-level-cache misses. On a
/// kernel or VM without a CPU PMU the group does not open; error() says why
/// and the ledger then reports no counter metrics.
class HwCounters {
 public:
  static constexpr int kCount = 3;

  HwCounters();
  ~HwCounters();
  HwCounters(const HwCounters&) = delete;
  HwCounters& operator=(const HwCounters&) = delete;

  bool ok() const { return fds_[0] >= 0; }
  const std::string& error() const { return error_; }
  void Start();
  /// Counts since Start, in the order cycles, instructions, LLC misses.
  std::vector<uint64_t> Stop();

 private:
  int fds_[kCount] = {-1, -1, -1};
  std::string error_;
};

/// The closed loop every workload runs: one warm-up unit whose metrics are
/// discarded (its deterministic outputs still count), then `unit(i,
/// traced)` back to back until `opt.seconds` have passed and at least
/// `min_units` more ran, each under a root span "unit" with request id i.
/// In traced runs every even unit is traced and every odd one is not, so the
/// traced and untraced run times come from the same process and machine
/// state.
template <typename UnitFn>
Status RunUnits(const Options& opt, int min_units, Report& report,
                SpanLog& spans, UnitFn&& unit) {
  MetricSet warmup;
  std::swap(warmup, report.e2e);
  if (Status s = unit(uint64_t{0}, false); !s.ok()) return s;
  std::swap(warmup, report.e2e);
  const auto start = Clock::now();
  for (int i = 1; i <= min_units || SecondsSince(start) < opt.seconds; ++i) {
    const bool traced = opt.trace && i % 2 == 0;
    spans.set_enabled(traced);
    const auto unit_start = Clock::now();
    {
      SpanLog::Scope root(spans, "unit", static_cast<uint64_t>(i));
      if (Status s = unit(static_cast<uint64_t>(i), traced); !s.ok()) {
        return s;
      }
    }
    const double unit_s = SecondsSince(unit_start);
    (traced ? report.traced_unit_s : report.untraced_unit_s).push_back(unit_s);
    if (!traced) report.e2e.Add("run_s", "s", unit_s);
  }
  spans.set_enabled(false);
  return Status::Ok();
}

/// Trace metrics of a finished loop: per traced unit, each layer's share
/// of the unit (share.<layer>, the remainder in share.other) and the
/// workload's intent share, the self time of `intent_layers` over that of
/// `base_layers` (the whole unit when empty); plus trace.overhead_pct, the
/// traced over the untraced median unit time.
void AddTraceMetrics(const SpanLog& spans,
                     const std::vector<std::string>& intent_layers,
                     const std::vector<std::string>& base_layers,
                     Report& report);

/// Workload entry points (one per workload; each also runs the layer pass
/// in traced runs).
Status RunPaperStable(const Options& opt, Report& report, SpanLog& spans);
Status RunChurnMaintain(const Options& opt, Report& report, SpanLog& spans);
Status RunRouteScale(const Options& opt, Report& report, SpanLog& spans);
Status RunClusterActor(const Options& opt, Report& report, SpanLog& spans);

}  // namespace perf_ledger

#endif  // PERF_LEDGER_LEDGER_H_
