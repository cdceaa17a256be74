#include "common/zipf.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace peercache {

ZipfDistribution::ZipfDistribution(size_t n, double alpha) : alpha_(alpha) {
  assert(n >= 1);
  assert(n < std::numeric_limits<uint32_t>::max());
  assert(alpha >= 0);
  pmf_.resize(n);
  cdf_.resize(n);
  double norm = 0;
  for (size_t r = 1; r <= n; ++r) {
    pmf_[r - 1] = std::pow(static_cast<double>(r), -alpha);
    norm += pmf_[r - 1];
  }
  double acc = 0;
  for (size_t r = 0; r < n; ++r) {
    pmf_[r] /= norm;
    acc += pmf_[r];
    cdf_[r] = acc;
  }
  cdf_.back() = 1.0;  // guard against floating-point shortfall

  // One sweep: guide_[j] only moves right as j grows, and the sweep stops
  // by the last rank because Bucket(1.0) == n.
  guide_.resize(n + 1);
  size_t r = 0;
  for (size_t j = 0; j <= n; ++j) {
    while (Bucket(cdf_[r]) < j) ++r;
    guide_[j] = static_cast<uint32_t>(r);
  }
}

size_t ZipfDistribution::Quantile(double u) const {
  assert(u >= 0.0 && u < 1.0);
  // The answer r* (first rank with CDF >= u) is bracketed by the guide:
  // Bucket(cdf_[r*]) >= Bucket(u) = j puts r* at or after guide_[j], and
  // Bucket(cdf_[guide_[j + 1]]) > j forces cdf_[guide_[j + 1]] > u, so r*
  // is at or before guide_[j + 1]. A binary search over [guide_[j],
  // guide_[j + 1]) therefore returns r*, or guide_[j + 1] when every CDF
  // value in the half-open range is below u. For u < 1, u * n rounds
  // below n, so the clamp only keeps out-of-range input in bounds.
  const size_t j = std::min(Bucket(u), cdf_.size() - 1);
  const auto lo = cdf_.begin() + guide_[j];
  const auto hi = cdf_.begin() + guide_[j + 1];
  return static_cast<size_t>(std::lower_bound(lo, hi, u) - cdf_.begin()) + 1;
}

}  // namespace peercache
