/**
 * @file
 * Lightweight statistics helpers: running moments, histograms, geometric
 * means, and ratio accumulators used throughout the experiments.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace buddy {

/** Incremental mean / min / max / stddev accumulator (Welford). */
class RunningStat
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        ++n_;
        const double d = x - mean_;
        mean_ += d / static_cast<double>(n_);
        m2_ += d * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
        sum_ += x;
    }

    std::size_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Geometric-mean accumulator (the paper reports gmeans throughout). */
class GeoMean
{
  public:
    /** Add one strictly-positive sample. */
    void
    add(double x)
    {
        BUDDY_CHECK(x > 0.0, "geometric mean requires positive samples");
        logSum_ += std::log(x);
        ++n_;
    }

    std::size_t count() const { return n_; }

    double
    value() const
    {
        return n_ ? std::exp(logSum_ / static_cast<double>(n_)) : 0.0;
    }

  private:
    double logSum_ = 0.0;
    std::size_t n_ = 0;
};

/** Fixed-bucket integer histogram (e.g. compressed-sector counts 0..4). */
class Histogram
{
  public:
    explicit Histogram(std::size_t buckets) : counts_(buckets, 0) {}

    /** Count one observation of @p bucket. */
    void
    add(std::size_t bucket)
    {
        BUDDY_CHECK(bucket < counts_.size(), "histogram bucket out of range");
        ++counts_[bucket];
        ++total_;
    }

    std::size_t buckets() const { return counts_.size(); }
    u64 count(std::size_t bucket) const { return counts_.at(bucket); }
    u64 total() const { return total_; }

    /** Fraction of observations in @p bucket. */
    double
    fraction(std::size_t bucket) const
    {
        return total_ ? static_cast<double>(counts_.at(bucket)) /
                            static_cast<double>(total_)
                      : 0.0;
    }

    /** Merge another histogram with the same bucket count. */
    void
    merge(const Histogram &other)
    {
        BUDDY_CHECK(other.counts_.size() == counts_.size(),
                    "histogram bucket mismatch");
        for (std::size_t b = 0; b < counts_.size(); ++b)
            counts_[b] += other.counts_[b];
        total_ += other.total_;
    }

  private:
    std::vector<u64> counts_;
    u64 total_ = 0;
};

/** Sum-of-numerator / sum-of-denominator ratio (e.g. hit rates). */
class RatioStat
{
  public:
    void add(double num, double den) { num_ += num; den_ += den; }
    void addHit() { num_ += 1; den_ += 1; }
    void addMiss() { den_ += 1; }

    double
    value() const
    {
        return den_ > 0 ? num_ / den_ : 0.0;
    }

    double numerator() const { return num_; }
    double denominator() const { return den_; }

  private:
    double num_ = 0.0;
    double den_ = 0.0;
};

} // namespace buddy
