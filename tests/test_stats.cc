/**
 * @file
 * Tests of the common streaming-statistics accumulators (common/stats.h):
 * RunningStat's one-pass Welford moments agree with a two-pass
 * computation over the same samples, and Histogram::merge is an exact
 * bucket fold.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace buddy {
namespace {

/** Deterministic mixed-magnitude sample stream. */
std::vector<double>
sampleStream(std::size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Mix tiny and large magnitudes so a naive sum-of-squares
        // variance would lose precision visibly.
        const double base = (i % 7 == 0) ? 1e9 : 1.0;
        xs.push_back(base + static_cast<double>(rng.below(1000)) / 997.0);
    }
    return xs;
}

TEST(RunningStat, MatchesTwoPassMoments)
{
    const auto xs = sampleStream(4096, 23);
    RunningStat rs;
    for (const double x : xs)
        rs.add(x);

    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    const double mean = sum / static_cast<double>(xs.size());
    double m2 = 0.0;
    for (const double x : xs)
        m2 += (x - mean) * (x - mean);
    const double variance = m2 / static_cast<double>(xs.size() - 1);

    EXPECT_EQ(rs.count(), xs.size());
    EXPECT_DOUBLE_EQ(rs.min(), *std::min_element(xs.begin(), xs.end()));
    EXPECT_DOUBLE_EQ(rs.max(), *std::max_element(xs.begin(), xs.end()));
    EXPECT_NEAR(rs.sum(), sum, std::abs(sum) * 1e-12);
    EXPECT_NEAR(rs.mean(), mean, std::abs(mean) * 1e-12);
    EXPECT_NEAR(rs.variance(), variance, variance * 1e-9);
}

TEST(RunningStat, EmptyAndSingleSampleAreZeroSpread)
{
    RunningStat rs;
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
    EXPECT_DOUBLE_EQ(rs.min(), 0.0);
    EXPECT_DOUBLE_EQ(rs.max(), 0.0);

    rs.add(3.5);
    EXPECT_DOUBLE_EQ(rs.mean(), 3.5);
    EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
    EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

TEST(Histogram, MergeAddsBuckets)
{
    Histogram a(5), b(5);
    a.add(0);
    a.add(4);
    b.add(4);
    b.add(2);
    a.merge(b);
    EXPECT_EQ(a.total(), 4u);
    EXPECT_EQ(a.count(0), 1u);
    EXPECT_EQ(a.count(2), 1u);
    EXPECT_EQ(a.count(4), 2u);
    EXPECT_DOUBLE_EQ(a.fraction(4), 0.5);
}

} // namespace
} // namespace buddy
