#include "common/stats.h"

#include <gtest/gtest.h>

namespace peercache {
namespace {

TEST(OnlineStats, Empty) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesCombined) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    double x = i * 0.7 - 3;
    (i % 2 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, empty;
  a.Add(3.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

// 10 million adds of 0.1: a naive accumulator drifts by ~1e-4 by this point
// (0.1 is not representable in binary), the compensated sum stays exact to
// the last ulp of the true total.
TEST(OnlineStats, CompensatedSumNoDriftOverTenMillionSamples) {
  OnlineStats s;
  constexpr int kSamples = 10'000'000;
  for (int i = 0; i < kSamples; ++i) s.Add(0.1);
  const double expected = 0.1 * kSamples;
  EXPECT_NEAR(s.sum(), expected, 1e-7);
  EXPECT_NEAR(s.sum(), 1e6, 1e-7);
}

// The compensation must survive Merge too: merging many small shards whose
// sums are each tiny relative to the running total is exactly the case where
// naive addition loses low-order bits.
TEST(OnlineStats, CompensatedSumSurvivesSharding) {
  OnlineStats merged;
  constexpr int kShards = 1000;
  constexpr int kPerShard = 10'000;
  for (int shard = 0; shard < kShards; ++shard) {
    OnlineStats s;
    for (int i = 0; i < kPerShard; ++i) s.Add(0.1);
    merged.Merge(s);
  }
  EXPECT_EQ(merged.count(), static_cast<uint64_t>(kShards) * kPerShard);
  EXPECT_NEAR(merged.sum(), 1e6, 1e-7);
}

// Mixed magnitudes: adding 1.0 then 1e100 then 1.0 then -1e100 loses both
// 1.0s in a naive sum; Neumaier compensation recovers them.
TEST(OnlineStats, CompensatedSumHandlesCancellation) {
  OnlineStats s;
  s.Add(1.0);
  s.Add(1e100);
  s.Add(1.0);
  s.Add(-1e100);
  EXPECT_DOUBLE_EQ(s.sum(), 2.0);
}

TEST(Histogram, BasicCountsAndMean) {
  Histogram h(10);
  h.Add(1);
  h.Add(1);
  h.Add(4);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(4), 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.0);
}

TEST(Histogram, Percentiles) {
  Histogram h(20);
  for (int v = 1; v <= 100; ++v) h.Add(v % 10);
  // 100 samples, 10 each of 0..9: the smallest v with >= q of the mass at
  // or below it.
  EXPECT_EQ(h.PercentileRank(0.0), 0);
  EXPECT_EQ(h.PercentileRank(0.5), 4);
  EXPECT_EQ(h.PercentileRank(0.99), 9);
  EXPECT_EQ(h.PercentileRank(1.0), 9);
}

TEST(Histogram, PercentileRankEdgeCases) {
  Histogram empty(4);
  EXPECT_EQ(empty.PercentileRank(0.5), 0);
  Histogram h(4);
  h.Add(2);
  h.Add(3);
  // q = 0 clamps to the first sample rather than reporting bucket 0.
  EXPECT_EQ(h.PercentileRank(0.0), 2);
  h.Add(50);  // overflow mass reports as the sentinel max_value() + 1
  EXPECT_EQ(h.PercentileRank(1.0), h.max_value() + 1);
}

TEST(Histogram, Overflow) {
  Histogram h(4);
  h.Add(100);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), 100.0);  // sum is exact even when bucketed out
}

TEST(Histogram, PercentileOfEmptyIsZero) {
  Histogram h(8);
  EXPECT_EQ(h.PercentileRank(0.0), 0);
  EXPECT_EQ(h.PercentileRank(0.5), 0);
  EXPECT_EQ(h.PercentileRank(1.0), 0);
}

// q = 0 asks for the smallest observed value, not bucket 0.
TEST(Histogram, PercentileZeroIsMinimum) {
  Histogram h(8);
  h.Add(3);
  h.Add(5);
  EXPECT_EQ(h.PercentileRank(0.0), 3);
}

// q = 1 asks for the largest observed value.
TEST(Histogram, PercentileOneIsMaximum) {
  Histogram h(8);
  h.Add(3);
  h.Add(5);
  EXPECT_EQ(h.PercentileRank(1.0), 5);
}

TEST(Histogram, PercentileSingleValue) {
  Histogram h(8);
  h.Add(4);
  EXPECT_EQ(h.PercentileRank(0.0), 4);
  EXPECT_EQ(h.PercentileRank(0.5), 4);
  EXPECT_EQ(h.PercentileRank(1.0), 4);
}

// When every sample overflowed, the only honest answer is the sentinel one
// past the largest tracked bucket.
TEST(Histogram, PercentileAllOverflow) {
  Histogram h(4);
  h.Add(50);
  h.Add(60);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.PercentileRank(0.5), 5);  // == max_value() + 1
  EXPECT_EQ(h.PercentileRank(0.5), h.max_value() + 1);
}

TEST(Histogram, PercentileMixedOverflow) {
  Histogram h(4);
  h.Add(1);
  h.Add(50);
  // The median is the tracked sample; only the top rank reaches the
  // overflow sentinel at max_value() + 1 = 5.
  EXPECT_EQ(h.PercentileRank(0.5), 1);
  EXPECT_EQ(h.PercentileRank(1.0), 5);
}

TEST(Histogram, SumTracksExactTotal) {
  Histogram h(4);
  h.Add(1);
  h.Add(2);
  h.Add(100);  // overflow still contributes its exact value
  EXPECT_EQ(h.sum(), 103);
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a(5), b(5);
  a.Add(1);
  b.Add(1);
  b.Add(2);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.BucketCount(1), 2u);
  EXPECT_EQ(a.BucketCount(2), 1u);
}

TEST(Histogram, SummaryMentionsCount) {
  Histogram h(5);
  h.Add(2);
  EXPECT_NE(h.Summary().find("count=1"), std::string::npos);
}

TEST(LogHistogram, EmptyReportsZeros) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 0.0);
}

// A single sample answers every quantile exactly — the within-bucket
// interpolation is clamped to the observed [min, max].
TEST(LogHistogram, SingleSampleAnswersEveryQuantile) {
  LogHistogram h;
  h.Add(42.5);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(q), 42.5) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.Mean(), 42.5);
  EXPECT_DOUBLE_EQ(h.min(), 42.5);
  EXPECT_DOUBLE_EQ(h.max(), 42.5);
}

// p0 and p100 are sharp: exactly the observed extremes, never a bucket
// boundary below the minimum or above the maximum.
TEST(LogHistogram, ExtremeQuantilesAreObservedMinMax) {
  LogHistogram h;
  for (double v : {0.7, 3.0, 19.0, 250.0}) h.Add(v);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0.7);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 250.0);
}

// Quantiles are monotone in q and land inside the bucket holding the rank:
// 1000 samples of 1..1000 keep every checked quantile within one bucket
// width (~19%) of the exact order statistic.
TEST(LogHistogram, QuantilesTrackOrderStatistics) {
  LogHistogram h;
  for (int v = 1; v <= 1000; ++v) h.Add(static_cast<double>(v));
  double prev = 0.0;
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double p = h.Percentile(q);
    const double exact = q * 1000.0;
    EXPECT_GE(p, prev) << "q=" << q;
    EXPECT_NEAR(p, exact, 0.2 * exact) << "q=" << q;
    prev = p;
  }
}

// Negative inputs (a defensive impossibility for latencies) clamp to 0
// instead of corrupting the bucket index.
TEST(LogHistogram, NegativeValuesClampToZero) {
  LogHistogram h;
  h.Add(-3.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
}

// Sharded Merge must be indistinguishable from serial accumulation: counts,
// extremes, compensated sum, and every reported quantile.
TEST(LogHistogram, MergeMatchesSerial) {
  LogHistogram serial, a, b, c;
  for (int i = 0; i < 3000; ++i) {
    const double v = 0.5 + (i % 701) * 1.7;
    serial.Add(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).Add(v);
  }
  a.Merge(b);
  a.Merge(c);
  EXPECT_EQ(a.count(), serial.count());
  EXPECT_DOUBLE_EQ(a.min(), serial.min());
  EXPECT_DOUBLE_EQ(a.max(), serial.max());
  EXPECT_DOUBLE_EQ(a.sum(), serial.sum());
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(q), serial.Percentile(q)) << "q=" << q;
  }
}

TEST(LogHistogram, MergeWithEmpty) {
  LogHistogram a, empty;
  a.Add(7.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.min(), 7.0);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.Percentile(0.5), 7.0);
}

}  // namespace
}  // namespace peercache
