#include "ledger.h"

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/random.h"

namespace perf_ledger {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t Fold(uint64_t acc, uint64_t value) {
  return peercache::MixHash64(acc ^ value);
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::string ExactText(double value) {
  return peercache::JsonWriter::FormatDouble(value);
}

std::string HexText(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

HwCounters::HwCounters() {
  static const uint64_t kConfigs[kCount] = {PERF_COUNT_HW_CPU_CYCLES,
                                            PERF_COUNT_HW_INSTRUCTIONS,
                                            PERF_COUNT_HW_CACHE_MISSES};
  for (int i = 0; i < kCount; ++i) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = kConfigs[i];
    attr.disabled = i == 0 ? 1 : 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    const long fd = syscall(SYS_perf_event_open, &attr, 0, -1,
                            i == 0 ? -1 : fds_[0], 0);
    if (fd < 0) {
      error_ = std::string("perf_event_open: ") + std::strerror(errno);
      for (int j = 0; j < i; ++j) close(fds_[j]);
      for (int& f : fds_) f = -1;
      return;
    }
    fds_[i] = static_cast<int>(fd);
  }
}

HwCounters::~HwCounters() {
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
}

void HwCounters::Start() {
  ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

std::vector<uint64_t> HwCounters::Stop() {
  ioctl(fds_[0], PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
  std::vector<uint64_t> counts(kCount, 0);
  for (int i = 0; i < kCount; ++i) {
    uint64_t value = 0;
    if (read(fds_[i], &value, sizeof(value)) == sizeof(value)) {
      counts[static_cast<size_t>(i)] = value;
    }
  }
  return counts;
}

void MetricSet::Add(const std::string& name, const std::string& unit,
                    double value) {
  Entry& e = entries_[name];
  e.unit = unit;
  e.samples.push_back(value);
}

void MetricSet::WriteJson(peercache::JsonWriter& w) const {
  w.BeginObject();
  for (const auto& [name, e] : entries_) {
    w.Key(name);
    w.BeginObject();
    w.Key("unit");
    w.String(e.unit);
    w.Key("value");
    w.Double(Median(e.samples));
    w.Key("min");
    w.Double(*std::min_element(e.samples.begin(), e.samples.end()));
    w.Key("max");
    w.Double(*std::max_element(e.samples.begin(), e.samples.end()));
    w.Key("samples");
    w.UInt(e.samples.size());
    w.EndObject();
  }
  w.EndObject();
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, uint64_t request)
    : log_(log) {
  if (!log_.enabled_) return;
  Span span;
  span.name = name;
  span.start_s = SecondsSince(log_.epoch_);
  if (!log_.open_.empty()) {
    span.parent = log_.open_.back();
    span.request = log_.spans_[static_cast<size_t>(span.parent)].request;
  } else {
    span.request = request;
  }
  index_ = static_cast<int>(log_.spans_.size());
  log_.spans_.push_back(std::move(span));
  log_.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = log_.spans_[static_cast<size_t>(index_)];
  span.end_s = SecondsSince(log_.epoch_);
  span.seconds = span.end_s - span.start_s;
  log_.open_.pop_back();
}

int SpanLog::AddAggregate(const std::string& name, double seconds,
                          uint64_t calls, int parent) {
  if (!enabled_) return -1;
  if (parent == -2) parent = open_.empty() ? -1 : open_.back();
  Span span;
  span.name = name;
  span.start_s = std::numeric_limits<double>::quiet_NaN();
  span.end_s = span.start_s;
  span.seconds = seconds;
  span.parent = parent;
  span.request = parent < 0 ? 0 : spans_[static_cast<size_t>(parent)].request;
  span.calls = calls;
  span.aggregate = true;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::LayerSeconds(uint64_t request) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].request != request) continue;
    self[i] += spans_[i].seconds;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= spans_[i].seconds;
    }
  }
  std::map<std::string, double> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].request != request) continue;
    const std::string& name = spans_[i].name;
    layers[name.substr(0, name.find('.'))] += self[i];
  }
  return layers;
}

double SpanLog::SpanSeconds(uint64_t request, const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.request == request && s.name == name) total += s.seconds;
  }
  return total;
}

void SpanLog::WriteJson(peercache::JsonWriter& w) const {
  w.BeginArray();
  for (const Span& s : spans_) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("start_s");
    w.Double(s.start_s);
    w.Key("end_s");
    w.Double(s.end_s);
    w.Key("seconds");
    w.Double(s.seconds);
    w.Key("parent");
    w.Int(s.parent);
    w.Key("request");
    w.UInt(s.request);
    w.Key("calls");
    w.UInt(s.calls);
    w.Key("aggregate");
    w.Bool(s.aggregate);
    w.EndObject();
  }
  w.EndArray();
}

void Report::Check(bool ok, const std::string& gate,
                   const std::string& detail) {
  Gate& g = gates[gate];
  ++g.checks;
  if (!ok && g.ok) {
    g.ok = false;
    g.detail = detail;
  }
}

void Report::Repeat(const std::map<std::string, std::string>& det) {
  if (deterministic.empty()) {
    deterministic = det;
    Check(true, "repeatable", "");
    return;
  }
  for (const auto& [key, value] : det) {
    const auto it = deterministic.find(key);
    const bool same = it != deterministic.end() && it->second == value;
    Check(same, "repeatable",
          key + " changed between units: " +
              (it == deterministic.end() ? "missing" : it->second) + " -> " +
              value);
  }
}

bool Report::AllGatesPass() const {
  for (const auto& [name, g] : gates) {
    if (!g.ok) return false;
  }
  return true;
}

void AddTraceMetrics(const SpanLog& spans,
                     const std::vector<std::string>& intent_layers,
                     const std::vector<std::string>& base_layers,
                     Report& report) {
  static const char* const kLayers[] = {
      "build", "warmup", "select", "maintain", "stabilize", "route",
      "sim",   "bus",    "client", "cache",    "restart"};
  auto sum = [](const std::map<std::string, double>& seconds,
                const std::vector<std::string>& names) {
    double total = 0.0;
    for (const std::string& n : names) {
      const auto it = seconds.find(n);
      if (it != seconds.end()) total += it->second;
    }
    return total;
  };
  for (size_t request = 2; request <= report.traced_unit_s.size() * 2;
       request += 2) {
    const double unit_s = spans.SpanSeconds(request, "unit");
    if (unit_s <= 0) continue;
    const std::map<std::string, double> seconds = spans.LayerSeconds(request);
    double covered = 0.0;
    for (const char* name : kLayers) {
      const double s = sum(seconds, {name});
      covered += s;
      report.layer.Add(std::string("share.") + name, "ratio", s / unit_s);
    }
    report.layer.Add("share.other", "ratio",
                     std::max(0.0, 1.0 - covered / unit_s));
    const double base =
        base_layers.empty() ? unit_s : sum(seconds, base_layers);
    report.layer.Add("intent.share", "ratio",
                     base > 0 ? sum(seconds, intent_layers) / base : 0.0);
  }
  const double untraced = Median(report.untraced_unit_s);
  if (untraced > 0 && !report.traced_unit_s.empty()) {
    report.layer.Add("trace.overhead_pct", "%",
                     100.0 * (Median(report.traced_unit_s) / untraced - 1.0));
  }
}

}  // namespace perf_ledger
