/**
 * @file
 * MetricRegistry: the deterministic observability registry — named
 * counters, gauges, and mergeable log2-bucket latency histograms with
 * snapshots and stable-ordered iteration.
 *
 * Discipline (gem5-stats-inspired, adapted to the repo's bit-identical
 * determinism contract):
 *
 *   - every value is integer state updated on the simulation path, so
 *     a metric derived from simulated time or traffic is as exact and
 *     reproducible as the totals it is built from;
 *   - names are hierarchical slash-paths ("sim/engine/batches") and
 *     iteration is stable (lexicographic), so two runs that update the
 *     same metrics produce byte-identical exports (obs/json.h);
 *   - metrics whose value depends on the host (wall seconds, host
 *     timings) MUST live under the kWallPrefix subtree, which the
 *     determinism checks and the simulated-time export exclude;
 *   - histograms merge exactly (bucket sums), so per-shard or
 *     per-run histograms fold into fleet totals without loss.
 *
 * Registered metric objects have stable addresses for the registry's
 * lifetime: hot paths hold pointers to Counter / LatencyHistogram
 * objects and update them without a name lookup.
 *
 * Thread-safety: registration and snapshot are for setup/report time
 * (single-threaded); updates to *distinct* metric objects may race
 * only in the C++ sense of separate objects (each object must still be
 * updated by one thread at a time, or under the caller's lock).
 */

#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/types.h"

namespace buddy {
namespace obs {

/** Subtree prefix for wall-clock (non-deterministic) metrics. */
inline constexpr const char *kWallPrefix = "wall/";

/** Subtree prefix for simulated-time, sharding-invariant metrics. */
inline constexpr const char *kSimPrefix = "sim/";

/** Monotone event count. */
class Counter
{
  public:
    void add(u64 n = 1) { v_ += n; }
    u64 value() const { return v_; }

  private:
    u64 v_ = 0;
};

/** Last-set instantaneous value (e.g. a configured size). */
class Gauge
{
  public:
    void set(i64 v) { v_ = v; }
    i64 value() const { return v_; }

  private:
    i64 v_ = 0;
};

/**
 * Log2-bucket integer histogram for latency-like u64 samples.
 *
 * Bucket 0 holds exactly the value 0; bucket b >= 1 holds
 * [2^(b-1), 2^b - 1]. 65 buckets cover the full u64 range. Alongside
 * the buckets the histogram keeps exact count/sum/min/max, and
 * percentile() estimates quantiles by deterministic integer
 * interpolation inside the target bucket (clamped to the observed
 * min/max) — so p50/p95/p99 are reproducible bit-for-bit and within a
 * factor-of-two bucket of the true order statistic.
 *
 * merge() is an exact fold (bucket/count/sum adds, min/max folds), so
 * per-shard histograms combine into fleet histograms losslessly.
 */
class LatencyHistogram
{
  public:
    static constexpr std::size_t kBuckets = 65;

    /** Bucket index of @p v: 0 for 0, else 1 + floor(log2(v)). */
    static std::size_t
    bucketOf(u64 v)
    {
        if (v == 0)
            return 0;
        return static_cast<std::size_t>(64 - __builtin_clzll(v));
    }

    /** Smallest value bucket @p b holds. */
    static u64
    bucketLo(std::size_t b)
    {
        return b == 0 ? 0 : 1ull << (b - 1);
    }

    /** Largest value bucket @p b holds. */
    static u64
    bucketHi(std::size_t b)
    {
        if (b == 0)
            return 0;
        if (b == kBuckets - 1)
            return ~0ull;
        return (1ull << b) - 1;
    }

    void
    add(u64 v)
    {
        ++counts_[bucketOf(v)];
        ++total_;
        sum_ += v;
        if (total_ == 1) {
            min_ = max_ = v;
        } else {
            min_ = v < min_ ? v : min_;
            max_ = v > max_ ? v : max_;
        }
    }

    /** Exact fold of @p other into this histogram. */
    void
    merge(const LatencyHistogram &other)
    {
        if (other.total_ == 0)
            return;
        for (std::size_t b = 0; b < kBuckets; ++b)
            counts_[b] += other.counts_[b];
        if (total_ == 0) {
            min_ = other.min_;
            max_ = other.max_;
        } else {
            min_ = other.min_ < min_ ? other.min_ : min_;
            max_ = other.max_ > max_ ? other.max_ : max_;
        }
        total_ += other.total_;
        sum_ += other.sum_;
    }

    u64 count() const { return total_; }
    u64 sum() const { return sum_; }
    u64 min() const { return total_ ? min_ : 0; }
    u64 max() const { return total_ ? max_ : 0; }
    u64 bucketCount(std::size_t b) const { return counts_[b]; }

    /** Exact mean, rounded down (0 when empty). */
    u64 mean() const { return total_ ? sum_ / total_ : 0; }

    /**
     * Deterministic quantile estimate at @p permille (500 = p50,
     * 990 = p99). Integer interpolation inside the target bucket,
     * clamped to the observed [min, max]; exact when every sample in
     * the bucket is distinct-uniform, always within the bucket's
     * factor-of-two bounds. @p permille must be in [0, 1000].
     */
    u64
    percentile(unsigned permille) const
    {
        BUDDY_CHECK(permille <= 1000, "permille quantile out of range");
        if (total_ == 0)
            return 0;
        // The extremes are tracked exactly; interpolation would only
        // blur them (its integer step degenerates to zero whenever a
        // bucket holds more samples than its span).
        if (permille == 0)
            return min_;
        if (permille == 1000)
            return max_;
        u64 rank = (total_ * permille + 999) / 1000;
        if (rank == 0)
            rank = 1;
        u64 cum = 0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            if (counts_[b] == 0)
                continue;
            if (cum + counts_[b] < rank) {
                cum += counts_[b];
                continue;
            }
            const u64 k = rank - cum; // 1..counts_[b]
            const u64 lo = bucketLo(b);
            const u64 hi = bucketHi(b);
            // Midpoint-rule interpolation across the bucket's span;
            // all-integer so the estimate is bit-reproducible.
            u64 v = lo + (hi - lo) / counts_[b] * (k - 1) +
                    (hi - lo) / (2 * counts_[b]);
            v = v < min_ ? min_ : v;
            v = v > max_ ? max_ : v;
            return v;
        }
        return max_;
    }

  private:
    u64 counts_[kBuckets] = {};
    u64 total_ = 0;
    u64 sum_ = 0;
    u64 min_ = 0;
    u64 max_ = 0;
};

/**
 * Point-in-time copy of a registry's values, in stable (lexicographic)
 * name order. Snapshots export (obs/json.h exportJson) without touching
 * the live registry.
 */
struct MetricSnapshot
{
    std::map<std::string, u64> counters;
    std::map<std::string, i64> gauges;
    std::map<std::string, LatencyHistogram> histograms;
};

/**
 * The hierarchical metric registry (see file header). Three kinds share
 * one namespace: registering the same name as two kinds is a fail-fast
 * error. counter()/gauge()/histogram() get-or-create, returning a
 * reference whose address is stable for the registry's lifetime.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    LatencyHistogram &histogram(const std::string &name);

    /** Copy every value out in stable order. */
    MetricSnapshot snapshot() const;

  private:
    void checkFresh(const std::string &name, const char *kind) const;

    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

} // namespace obs
} // namespace buddy
