#ifndef PEERCACHE_COMMON_ZIPF_H_
#define PEERCACHE_COMMON_ZIPF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace peercache {

/// Zipf distribution over ranks 1..n with exponent alpha:
///   P(rank = r) ∝ 1 / r^alpha.
///
/// The paper's workloads draw item queries from zipf with alpha = 1.2 and
/// alpha = 0.91. Sampling is exact inversion of the precomputed CDF. A
/// guide table (Chen–Asau indexed search) splits [0, 1) into n equal
/// buckets and stores, per bucket, the first rank whose CDF reaches it, so
/// a draw starts at its bucket and binary-searches only the ranks the
/// bucket spans: O(1) expected, O(log n) worst case, and always the rank a
/// binary search over the whole CDF returns. n in the experiments is small
/// enough (<= a few hundred thousand items) that the O(n) tables are cheap.
class ZipfDistribution {
 public:
  /// Creates a zipf distribution over n >= 1 ranks with exponent alpha >= 0.
  /// alpha == 0 degenerates to the uniform distribution.
  ZipfDistribution(size_t n, double alpha);

  size_t n() const { return pmf_.size(); }
  double alpha() const { return alpha_; }

  /// Probability of rank r (1-indexed, 1 <= r <= n).
  double Pmf(size_t rank) const { return pmf_[rank - 1]; }

  /// Draws a rank in [1, n]; the most popular rank is 1. Equal to
  /// Quantile(rng.UniformDouble()).
  size_t Sample(Rng& rng) const { return Quantile(rng.UniformDouble()); }

  /// The smallest rank whose CDF is >= u, for u in [0, 1): the inverse CDF
  /// that Sample applies to one uniform draw.
  size_t Quantile(double u) const;

  /// Expected frequency vector (pmf), index 0 holding rank 1.
  const std::vector<double>& pmf() const { return pmf_; }

 private:
  /// The guide bucket of u in [0, 1]: floor(u * n), evaluated exactly as
  /// written so the table and every lookup agree on bucket edges. Monotone
  /// in u, which is all the guide table's bracketing needs.
  size_t Bucket(double u) const {
    return static_cast<size_t>(u * static_cast<double>(cdf_.size()));
  }

  double alpha_;
  std::vector<double> pmf_;
  std::vector<double> cdf_;
  /// guide_[j], j in [0, n]: the first 0-based rank r with
  /// Bucket(cdf_[r]) >= j — "CDF >= j/n" in the sampler's own arithmetic.
  /// A draw in bucket j has its rank in [guide_[j], guide_[j + 1]].
  std::vector<uint32_t> guide_;
};

}  // namespace peercache

#endif  // PEERCACHE_COMMON_ZIPF_H_
