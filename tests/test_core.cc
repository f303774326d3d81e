/**
 * @file
 * Tests for the core utilities: RNG determinism and distributions,
 * tables, and statistics helpers.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "core/stats.h"
#include "core/table.h"

namespace echo {
namespace {

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    Summary s;
    for (int i = 0; i < 20000; ++i)
        s.add(rng.gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.05);
    EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, ZipfIsSkewedTowardLowRanks)
{
    Rng rng(13);
    int low = 0, high = 0;
    for (int i = 0; i < 5000; ++i) {
        const uint64_t r = rng.zipf(1000, 1.0);
        EXPECT_LT(r, 1000u);
        if (r < 10)
            ++low;
        if (r >= 500)
            ++high;
    }
    EXPECT_GT(low, high * 3);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(5);
    Rng child = a.split();
    EXPECT_NE(a.next(), child.next());
}

TEST(Summary, TracksMinMeanMax)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_EQ(s.count(), 4u);
}

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation)
{
    std::vector<double> xs{1, 2, 3, 4, 5};
    std::vector<double> ys{2, 4, 6, 8, 10};
    EXPECT_NEAR(pearsonCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(Stats, PearsonAnticorrelation)
{
    std::vector<double> xs{1, 2, 3};
    std::vector<double> ys{3, 2, 1};
    EXPECT_NEAR(pearsonCorrelation(xs, ys), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSampleIsZero)
{
    std::vector<double> xs{1, 1, 1};
    std::vector<double> ys{1, 2, 3};
    EXPECT_DOUBLE_EQ(pearsonCorrelation(xs, ys), 0.0);
}

TEST(Histogram, BucketBoundariesFollowLogSpacing)
{
    // lo=1, 1 bucket per decade: bucket 1 = [1, 10), bucket 2 =
    // [10, 100), bucket 3 = [100, 1000), then overflow.
    Histogram h(1.0, 1000.0, 1);
    EXPECT_EQ(h.numBuckets(), 5u); // underflow + 3 + overflow
    EXPECT_EQ(h.bucketIndex(0.5), 0u);
    EXPECT_EQ(h.bucketIndex(-3.0), 0u);
    EXPECT_EQ(h.bucketIndex(1.0), 1u);
    EXPECT_EQ(h.bucketIndex(9.99), 1u);
    EXPECT_EQ(h.bucketIndex(10.0), 2u);
    EXPECT_EQ(h.bucketIndex(999.0), 3u);
    EXPECT_EQ(h.bucketIndex(1000.0), 4u);
    EXPECT_EQ(h.bucketIndex(1e9), 4u);
    EXPECT_DOUBLE_EQ(h.bucketLowerBound(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketLowerBound(1), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketLowerBound(2), 10.0);
    EXPECT_DOUBLE_EQ(h.bucketLowerBound(3), 100.0);
}

TEST(Histogram, FinerBucketsPerDecade)
{
    Histogram h(1.0, 10.0, 4);
    // r = 10^(1/4) ~ 1.778: buckets [1,1.778), [1.778,3.162), ...
    EXPECT_EQ(h.bucketIndex(1.0), 1u);
    EXPECT_EQ(h.bucketIndex(1.7), 1u);
    EXPECT_EQ(h.bucketIndex(1.8), 2u);
    EXPECT_EQ(h.bucketIndex(3.2), 3u);
    EXPECT_EQ(h.bucketIndex(5.7), 4u);
    EXPECT_NEAR(h.bucketLowerBound(2), std::pow(10.0, 0.25), 1e-12);
}

TEST(Histogram, SmallSamplePercentilesAreExact)
{
    Histogram h;
    for (double v : {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0,
                     90.0, 100.0})
        h.add(v);
    // Nearest rank over 10 samples: p50 -> 5th = 50, p95 -> 10th,
    // p99 -> 10th, p10 -> 1st.
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 50.0);
    EXPECT_DOUBLE_EQ(h.percentile(95.0), 100.0);
    EXPECT_DOUBLE_EQ(h.p99(), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(10.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 55.0);
}

TEST(Histogram, EmptyPercentileIsZero)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, LargeSamplePercentilesApproximate)
{
    // Past the exact-sample capacity the percentile comes from bucket
    // interpolation; with 16 buckets/decade the relative error stays
    // within one bucket width (~15%).
    Histogram h;
    for (int i = 1; i <= 20000; ++i)
        h.add(static_cast<double>(i));
    ASSERT_GT(h.count(), Histogram::kExactCapacity);
    EXPECT_NEAR(h.percentile(50.0), 10000.0, 1500.0);
    EXPECT_NEAR(h.percentile(95.0), 19000.0, 2900.0);
    EXPECT_NEAR(h.percentile(99.0), 19800.0, 3000.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 20000.0);
}

TEST(Histogram, UnderflowAndOverflowCounted)
{
    Histogram h(1.0, 100.0, 1);
    h.add(0.1);
    h.add(-5.0);
    h.add(1e6);
    EXPECT_EQ(h.bucketCount(0), 2);
    EXPECT_EQ(h.bucketCount(h.numBuckets() - 1), 1);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    EXPECT_EQ(t.numRows(), 2u);
    const std::string s = t.toString();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(Table, CsvQuotesCommas)
{
    Table t({"a"});
    t.addRow({"x,y"});
    EXPECT_NE(t.toCsv().find("\"x,y\""), std::string::npos);
}

TEST(Table, FormatsBytes)
{
    EXPECT_EQ(Table::fmtBytes(512), "512 B");
    EXPECT_EQ(Table::fmtBytes(4ull << 30), "4.00 GB");
}

TEST(Table, FormatsPercent)
{
    EXPECT_EQ(Table::fmtPercent(0.591), "59.1%");
}

} // namespace
} // namespace echo
