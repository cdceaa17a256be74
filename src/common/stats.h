#ifndef PEERCACHE_COMMON_STATS_H_
#define PEERCACHE_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace peercache {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class OnlineStats {
 public:
  void Add(double x);
  void Merge(const OnlineStats& other);

  uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  /// Running sum tracked with Neumaier-Kahan compensation rather than
  /// reconstructed as mean*count (which drifts for large counts).
  double sum() const { return sum_ + sum_compensation_; }

 private:
  uint64_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
  double sum_ = 0;
  double sum_compensation_ = 0;  ///< Kahan carry for sum_.
};

/// Fixed-bucket integer histogram for hop counts: buckets 0..max_value, plus
/// an overflow bucket.
class Histogram {
 public:
  /// Tracks values 0..max_value exactly; larger values land in overflow.
  explicit Histogram(int max_value);

  void Add(int value);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t BucketCount(int value) const;
  uint64_t overflow() const { return overflow_; }
  /// Largest exactly-tracked value (buckets run 0..max_value).
  int max_value() const { return static_cast<int>(buckets_.size()) - 1; }
  int64_t sum() const { return sum_; }
  double Mean() const;
  /// Nearest-rank quantile: the smallest v such that at least q of the
  /// mass is <= v, so every answer is an observed value. q = 0 reports the
  /// minimum, q = 1 the maximum, and an empty histogram 0. Overflow mass
  /// reports as max_value()+1.
  int PercentileRank(double q) const;

  /// One-line textual rendering "mean=… p50=… p99=… max_bucket=…".
  std::string Summary() const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t overflow_ = 0;
  uint64_t count_ = 0;
  int64_t sum_ = 0;
};

/// Log-spaced histogram for latency-like positive values spanning several
/// orders of magnitude. Bucket bounds are precomputed by repeated
/// multiplication (never via log2 at insert time), so placement and
/// percentiles are bit-identical across platforms and thread counts.
///
/// Buckets: [0, b0), [b0, b1), ..., [b_{N-1}, inf) with b0 = 0.1 and
/// growth 2^(1/4) per bucket (~19% relative resolution), covering
/// 0.1 .. ~1.4e6 before the open-ended tail.
class LogHistogram {
 public:
  LogHistogram();

  void Add(double value);
  void Merge(const LogHistogram& other);

  uint64_t count() const { return count_; }
  double sum() const { return sum_ + sum_compensation_; }
  double Mean() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Within-bucket linearly interpolated quantile, clamped to the exact
  /// observed [min, max] so p0/p100 are sharp and a single sample answers
  /// every q. Empty histogram reports 0.
  double Percentile(double q) const;

 private:
  double BucketLowerBound(size_t index) const;
  double BucketUpperBound(size_t index) const;

  std::vector<uint64_t> counts_;  ///< bounds_.size() + 1 buckets.
  uint64_t count_ = 0;
  double sum_ = 0;
  double sum_compensation_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace peercache

#endif  // PEERCACHE_COMMON_STATS_H_
