#include "common/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

namespace peercache {
namespace {

/// The distribution's CDF, recomputed here the way the model defines it:
/// normalized r^-alpha accumulated in rank order, the last entry pinned to
/// exactly 1.
std::vector<double> ReferenceCdf(size_t n, double alpha) {
  std::vector<double> pmf(n);
  double norm = 0;
  for (size_t r = 1; r <= n; ++r) {
    pmf[r - 1] = std::pow(static_cast<double>(r), -alpha);
    norm += pmf[r - 1];
  }
  std::vector<double> cdf(n);
  double acc = 0;
  for (size_t r = 0; r < n; ++r) {
    acc += pmf[r] / norm;
    cdf[r] = acc;
  }
  cdf.back() = 1.0;
  return cdf;
}

/// Exact inversion by binary search over the whole CDF: the rank Sample
/// must return for uniform draw u.
size_t ReferenceRank(const std::vector<double>& cdf, double u) {
  return static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin()) +
         1;
}

/// Every interesting inversion input for one distribution: 0, the largest
/// double below 1, every guide-bucket edge j/n, every CDF value (where the
/// answer changes), and the nextafter neighbours of each edge and value.
std::vector<double> EdgeInputs(const std::vector<double>& cdf) {
  const double n = static_cast<double>(cdf.size());
  std::vector<double> edges = {0.0, std::nextafter(1.0, 0.0)};
  auto add_with_neighbours = [&](double u) {
    for (double v : {std::nextafter(u, 0.0), u, std::nextafter(u, 1.0)}) {
      if (v >= 0.0 && v < 1.0) edges.push_back(v);
    }
  };
  for (size_t j = 0; j <= cdf.size(); ++j) {
    add_with_neighbours(static_cast<double>(j) / n);
  }
  for (double c : cdf) add_with_neighbours(c);
  return edges;
}

constexpr size_t kGridN[] = {1, 2, 3, 7, 4096, 32768, 100000};
constexpr double kGridAlpha[] = {0.0, 0.5, 0.9, 0.91, 1.2, 2.0};

TEST(Zipf, PmfSumsToOne) {
  for (double alpha : {0.0, 0.91, 1.2, 2.0}) {
    ZipfDistribution zipf(1000, alpha);
    double sum = 0;
    for (size_t r = 1; r <= 1000; ++r) sum += zipf.Pmf(r);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "alpha=" << alpha;
  }
}

TEST(Zipf, PmfDecreasesWithRank) {
  ZipfDistribution zipf(100, 1.2);
  for (size_t r = 1; r < 100; ++r) {
    EXPECT_GT(zipf.Pmf(r), zipf.Pmf(r + 1));
  }
}

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfDistribution zipf(50, 0.0);
  for (size_t r = 1; r <= 50; ++r) {
    EXPECT_NEAR(zipf.Pmf(r), 1.0 / 50, 1e-12);
  }
}

TEST(Zipf, PmfRatioMatchesExponent) {
  ZipfDistribution zipf(100, 1.2);
  EXPECT_NEAR(zipf.Pmf(1) / zipf.Pmf(2), std::pow(2.0, 1.2), 1e-9);
  EXPECT_NEAR(zipf.Pmf(2) / zipf.Pmf(4), std::pow(2.0, 1.2), 1e-9);
}

TEST(Zipf, SampleMatchesPmf) {
  ZipfDistribution zipf(64, 1.2);
  Rng rng(97);
  constexpr int kDraws = 200000;
  std::vector<int> counts(65, 0);
  for (int i = 0; i < kDraws; ++i) {
    size_t r = zipf.Sample(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 64u);
    ++counts[r];
  }
  for (size_t r = 1; r <= 8; ++r) {
    double expected = zipf.Pmf(r) * kDraws;
    EXPECT_NEAR(counts[r], expected, 5 * std::sqrt(expected) + 5)
        << "rank " << r;
  }
}

TEST(Zipf, SampleEqualsBinarySearchOverTheWholeCdf) {
  uint64_t checked = 0;
  for (size_t n : kGridN) {
    for (double alpha : kGridAlpha) {
      const std::string where =
          "n=" + std::to_string(n) + " alpha=" + std::to_string(alpha);
      const ZipfDistribution zipf(n, alpha);
      const std::vector<double> cdf = ReferenceCdf(n, alpha);

      // Seeded streams: Sample consumes exactly one uniform draw, so a
      // twin stream supplies the u each sample inverted.
      for (uint64_t seed : {1u, 97u, 0x5eedu}) {
        Rng sampled(seed);
        Rng twin(seed);
        for (int i = 0; i < 20000; ++i) {
          const size_t got = zipf.Sample(sampled);
          const double u = twin.UniformDouble();
          ASSERT_EQ(got, ReferenceRank(cdf, u))
              << where << " seed=" << seed << " draw " << i << " u=" << u;
          ++checked;
        }
      }

      for (double u : EdgeInputs(cdf)) {
        ASSERT_EQ(zipf.Quantile(u), ReferenceRank(cdf, u))
            << where << " u=" << u;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, uint64_t{4000000});
}

// The guide table leaves a binary search over the ranks one bucket spans,
// and that span can be large: at alpha = 2 the tail beyond rank ~n/zeta(2)
// holds less than 1/n of the mass, so the last of n = 100000 buckets spans
// about 4e4 ranks. A linear walk there costs ~1e4 probes a draw where a
// binary search costs ~16, so inverting draws from that bucket must stay
// within a small factor of a whole-table binary search. Both loops run
// here on the same inputs, so host speed cancels; the minimum over
// repetitions discards preemption.
TEST(Zipf, InBucketSearchIsBinary) {
  constexpr size_t kN = 100000;
  const ZipfDistribution zipf(kN, 2.0);
  const std::vector<double> cdf = ReferenceCdf(kN, 2.0);
  const double last_edge = static_cast<double>(kN - 1) / kN;
  const size_t first_in_last_bucket = static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), last_edge) - cdf.begin());
  ASSERT_GT(kN - first_in_last_bucket, size_t{30000});

  Rng rng(2);
  std::vector<double> inputs(20000);
  for (double& u : inputs) {
    u = std::min(last_edge + rng.UniformDouble() * (1.0 - last_edge),
                 std::nextafter(1.0, 0.0));
  }
  using Clock = std::chrono::steady_clock;
  double guided = 1e30;
  double whole = 1e30;
  size_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    auto start = Clock::now();
    for (double u : inputs) sink += ReferenceRank(cdf, u);
    whole = std::min(
        whole, std::chrono::duration<double>(Clock::now() - start).count());
    start = Clock::now();
    for (double u : inputs) sink -= zipf.Quantile(u);
    guided = std::min(
        guided, std::chrono::duration<double>(Clock::now() - start).count());
  }
  EXPECT_EQ(sink, 0u);  // same ranks, and the loops are not optimized away
  EXPECT_LT(guided, 10.0 * whole)
      << "guided " << guided << " s vs whole-table " << whole << " s";
}

TEST(Zipf, SingleRank) {
  ZipfDistribution zipf(1, 1.2);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(zipf.Pmf(1), 1.0);
  EXPECT_EQ(zipf.Sample(rng), 1u);
}

}  // namespace
}  // namespace peercache
