/**
 * @file
 * The profiling pass that chooses target compression ratios
 * (paper Section 3.4).
 *
 * Buddy Compression selects a *static* target ratio per allocation by
 * profiling a representative run (smaller dataset / mini-batch):
 *
 *  - a histogram of compressed entry sizes is collected per allocation
 *    across periodic memory snapshots;
 *  - the most aggressive target whose overflow fraction stays within the
 *    *Buddy Threshold* (default 30%) is chosen per allocation;
 *  - allocations that are almost entirely zero get the 16x mostly-zero
 *    target (8 B per 128 B entry kept on-device);
 *  - the overall ratio is capped at 4x, the limit imposed by the 3x
 *    buddy-memory carve-out.
 *
 * The naive baseline of Figure 7 uses one conservative whole-program
 * target instead; both policies are implemented here so the design sweep
 * can be reproduced.
 */

#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/stats.h"
#include "compress/sector.h"

namespace buddy {

/**
 * Device-byte demand buckets for profiling: the device bytes an entry
 * would need to avoid any buddy access, aligned to the target ratios
 * (0 = zero entry, 8 = fits 16x, 32 = fits 4x, 64 = fits 2x,
 * 96 = fits 1.33x, 128 = needs 1x).
 */
constexpr std::array<u64, 6> kNeedBuckets = {0, 8, 32, 64, 96, 128};

/** Bucket index for a compressed entry (see kNeedBuckets). */
inline std::size_t
needBucket(std::size_t size_bits, bool is_zero)
{
    if (is_zero)
        return 0;
    const std::size_t bytes = (size_bits + 7) / 8;
    for (std::size_t i = 1; i < kNeedBuckets.size(); ++i)
        if (bytes <= kNeedBuckets[i])
            return i;
    return kNeedBuckets.size() - 1;
}

/** Compressibility profile of one allocation, merged over snapshots. */
class AllocationProfile
{
  public:
    AllocationProfile(std::string name, u64 bytes)
        : name_(std::move(name)), bytes_(bytes),
          hist_(kNeedBuckets.size())
    {}

    /** Record one compressed entry observation. */
    void
    addEntry(std::size_t size_bits, bool is_zero)
    {
        hist_.add(needBucket(size_bits, is_zero));
    }

    /** Merge another profile of the same allocation (later snapshot). */
    void merge(const AllocationProfile &o) { hist_.merge(o.hist_); }

    const std::string &name() const { return name_; }
    u64 bytes() const { return bytes_; }
    const Histogram &histogram() const { return hist_; }

    /** Fraction of observed entries that fit @p t entirely on-device. */
    double
    fitFraction(CompressionTarget t) const
    {
        const u64 budget = deviceBytesPerEntry(t);
        double fit = 0.0;
        for (std::size_t i = 0; i < kNeedBuckets.size(); ++i)
            if (kNeedBuckets[i] <= budget)
                fit += hist_.fraction(i);
        return fit;
    }

    /** Fraction of entries that would overflow to buddy memory under @p t. */
    double
    overflowFraction(CompressionTarget t) const
    {
        // Clamp: fitFraction can exceed 1.0 by an ulp of rounding.
        return std::max(0.0, 1.0 - fitFraction(t));
    }

    /**
     * Best-achievable compression ratio of the data itself, using the
     * optimistic Figure 3 accounting (mean compressed size over the need
     * buckets, no target quantization).
     */
    double
    bestAchievableRatio() const
    {
        if (hist_.total() == 0)
            return 1.0;
        double mean_bytes = 0.0;
        for (std::size_t i = 0; i < kNeedBuckets.size(); ++i) {
            // A zero entry still needs its metadata; treat it as 8 B to
            // match the paper's 16x cap on mostly-zero data.
            const double b =
                i == 0 ? 8.0 : static_cast<double>(kNeedBuckets[i]);
            mean_bytes += b * hist_.fraction(i);
        }
        return static_cast<double>(kEntryBytes) / mean_bytes;
    }

  private:
    std::string name_;
    u64 bytes_;
    Histogram hist_;
};

/** Result of a profiling pass over one workload. */
struct ProfileDecision
{
    /** Chosen target per allocation, parallel to the input profiles. */
    std::vector<CompressionTarget> targets;

    /** Overall capacity compression ratio at the chosen targets. */
    double compressionRatio = 1.0;

    /**
     * Expected fraction of accesses served partly from buddy memory,
     * statically estimated from the histograms with footprint weighting
     * (the paper's Figures 7 and 9 metric).
     */
    double buddyAccessFraction = 0.0;

    /** Best-achievable ratio of the data (Figure 9 black marker). */
    double bestAchievableRatio = 1.0;
};

/** Profiling policy parameters. */
struct ProfilerConfig
{
    /** Buddy Threshold: max per-allocation overflow fraction (30%). */
    double buddyThreshold = 0.30;

    /** Min fit fraction at 16x to classify an allocation mostly-zero. */
    double mostlyZeroFit = 0.95;

    /** Cap on the overall ratio from the 3x carve-out (Section 3.4). */
    double maxOverallRatio = 4.0;

    /** Enable per-allocation targets (off = naive whole-program). */
    bool perAllocation = true;

    /** Enable the 16x mostly-zero special case (Section 3.4). */
    bool zeroPageOptimization = true;
};

/** The profiling pass (see file header). */
class Profiler
{
  public:
    explicit Profiler(const ProfilerConfig &cfg = {}) : cfg_(cfg) {}

    /** Target choice for a single allocation profile. */
    CompressionTarget chooseTarget(const AllocationProfile &p) const;

    /** Full decision across a workload's allocations. */
    ProfileDecision decide(
        const std::vector<AllocationProfile> &profiles) const;

    const ProfilerConfig &config() const { return cfg_; }

  private:
    ProfilerConfig cfg_;
};

} // namespace buddy
