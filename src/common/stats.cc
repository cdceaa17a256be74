#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace peercache {

namespace {

/// One Neumaier-compensated addition: accumulates the rounding error of
/// `sum += x` into `compensation` so sum+compensation stays exact.
void CompensatedAdd(double& sum, double& compensation, double x) {
  const double t = sum + x;
  if (std::abs(sum) >= std::abs(x)) {
    compensation += (sum - t) + x;
  } else {
    compensation += (x - t) + sum;
  }
  sum = t;
}

/// Log-spaced bucket upper bounds, built by repeated multiplication from
/// literal constants so every platform computes the identical table (libm
/// log/exp are *not* bit-stable across implementations; a plain double
/// multiply is).
const std::vector<double>& LogBucketBounds() {
  static const std::vector<double> bounds = [] {
    constexpr double kFirstBound = 0.1;
    constexpr double kGrowth = 1.189207115002721;  // 2^(1/4)
    constexpr size_t kBuckets = 96;
    std::vector<double> b;
    b.reserve(kBuckets);
    double bound = kFirstBound;
    for (size_t i = 0; i < kBuckets; ++i) {
      b.push_back(bound);
      bound *= kGrowth;
    }
    return b;
  }();
  return bounds;
}

}  // namespace

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  CompensatedAdd(sum_, sum_compensation_, x);
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  CompensatedAdd(sum_, sum_compensation_, other.sum_);
  CompensatedAdd(sum_, sum_compensation_, other.sum_compensation_);
  uint64_t n = count_ + other.count_;
  double delta = other.mean_ - mean_;
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  mean_ += delta * nb / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = n;
}

double OnlineStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(int max_value)
    : buckets_(static_cast<size_t>(max_value) + 1, 0) {
  assert(max_value >= 0);
}

void Histogram::Add(int value) {
  assert(value >= 0);
  ++count_;
  sum_ += value;
  if (static_cast<size_t>(value) < buckets_.size()) {
    ++buckets_[static_cast<size_t>(value)];
  } else {
    ++overflow_;
  }
}

void Histogram::Merge(const Histogram& other) {
  assert(buckets_.size() == other.buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  overflow_ += other.overflow_;
  count_ += other.count_;
  sum_ += other.sum_;
}

uint64_t Histogram::BucketCount(int value) const {
  assert(value >= 0 && static_cast<size_t>(value) < buckets_.size());
  return buckets_[static_cast<size_t>(value)];
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

int Histogram::PercentileRank(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0;
  uint64_t target = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (target == 0) target = 1;
  uint64_t acc = 0;
  for (size_t v = 0; v < buckets_.size(); ++v) {
    acc += buckets_[v];
    if (acc >= target) return static_cast<int>(v);
  }
  return static_cast<int>(buckets_.size());  // overflow bucket
}

std::string Histogram::Summary() const {
  std::ostringstream os;
  os << "count=" << count_ << " mean=" << Mean()
     << " p50=" << PercentileRank(0.5) << " p99=" << PercentileRank(0.99)
     << " overflow=" << overflow_;
  return os.str();
}

LogHistogram::LogHistogram() : counts_(LogBucketBounds().size() + 1, 0) {}

void LogHistogram::Add(double value) {
  if (value < 0.0) value = 0.0;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  CompensatedAdd(sum_, sum_compensation_, value);
  const std::vector<double>& bounds = LogBucketBounds();
  const size_t index = static_cast<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  ++counts_[index];
}

void LogHistogram::Merge(const LogHistogram& other) {
  assert(counts_.size() == other.counts_.size());
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  CompensatedAdd(sum_, sum_compensation_, other.sum_);
  CompensatedAdd(sum_, sum_compensation_, other.sum_compensation_);
}

double LogHistogram::Mean() const {
  return count_ == 0 ? 0.0 : sum() / static_cast<double>(count_);
}

double LogHistogram::BucketLowerBound(size_t index) const {
  return index == 0 ? 0.0 : LogBucketBounds()[index - 1];
}

double LogHistogram::BucketUpperBound(size_t index) const {
  const std::vector<double>& bounds = LogBucketBounds();
  return index < bounds.size() ? bounds[index] : max_;
}

double LogHistogram::Percentile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double acc = 0.0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const double c = static_cast<double>(counts_[i]);
    if (c == 0.0) continue;
    if (acc + c >= target) {
      const double lo = BucketLowerBound(i);
      const double hi = std::max(BucketUpperBound(i), lo);
      const double frac =
          std::min(1.0, std::max(0.0, (target - acc) / c));
      const double v = lo + frac * (hi - lo);
      return std::min(std::max(v, min_), max_);
    }
    acc += c;
  }
  return max_;
}

}  // namespace peercache
