/**
 * @file
 * Synthetic workload memory images.
 *
 * A WorkloadModel instantiates one benchmark's allocation specs at a
 * (usually scaled-down) footprint and generates its memory contents
 * deterministically, entry by entry, for each of the run's snapshots —
 * the stand-in for the paper's ten memory dumps per benchmark
 * (Section 3.1). Generation is pure: entry (a, e, s) always produces the
 * same bytes for the same benchmark seed, so experiments never need to
 * hold a full image in memory and temporal experiments (Fig. 8) can
 * observe per-entry compressibility changes.
 *
 * Bucket assignment per layout:
 *  - Homogeneous: the allocation's address range is carved into
 *    contiguous same-bucket regions via the mixture CDF; as the mixture
 *    evolves between snapshots the region boundaries slide (355.seismic's
 *    zeros filling in over time).
 *  - Shuffled: each entry draws its bucket from the mixture by hash; the
 *    churn rate re-rolls a fraction of entries per snapshot (DL pools).
 *  - Striped: the bucket repeats with a short period (HPGMG's structs).
 */

#pragma once

#include <vector>

#include "common/types.h"
#include "workloads/benchmark.h"

namespace buddy {

/** One materialized allocation inside a WorkloadModel. */
struct ModelAllocation
{
    const AllocationSpec *spec;

    /** First entry index of the allocation within the model. */
    u64 firstEntry;

    /** Number of 128 B entries. */
    u64 entries;
};

/** Deterministic snapshot-addressable memory image (see file header). */
class WorkloadModel
{
  public:
    /** Default number of snapshots taken across the run (Section 3.1). */
    static constexpr unsigned kSnapshots = 10;

    /**
     * @param spec        the benchmark.
     * @param model_bytes scaled footprint to materialize (0 = use the
     *                    benchmark's real Table 1 footprint).
     * @param snapshots   snapshots across the run.
     */
    WorkloadModel(const BenchmarkSpec &spec, u64 model_bytes,
                  unsigned snapshots = kSnapshots);

    const BenchmarkSpec &spec() const { return *spec_; }
    unsigned snapshots() const { return snapshots_; }
    const std::vector<ModelAllocation> &allocations() const
    {
        return allocs_;
    }

    /** Total entries across all allocations. */
    u64 totalEntries() const { return totalEntries_; }

    /** Total modelled bytes (totalEntries * 128). */
    u64 totalBytes() const { return totalEntries_ * kEntryBytes; }

    /** Need bucket of entry @p e of allocation @p a at snapshot @p s. */
    unsigned bucketOf(std::size_t a, u64 e, unsigned s) const;

    /** Generate the 128 B contents of entry (a, e) at snapshot @p s. */
    void entryData(std::size_t a, u64 e, unsigned s, u8 *out) const;

  private:
    /** Mixture of allocation @p a interpolated to snapshot @p s. */
    std::array<double, 6> mixAt(std::size_t a, unsigned s) const;

    /** Content epoch of an entry at snapshot s (churn re-rolls). */
    u64 epochOf(std::size_t a, u64 e, unsigned s) const;

    const BenchmarkSpec *spec_;
    unsigned snapshots_;
    std::vector<ModelAllocation> allocs_;
    u64 totalEntries_ = 0;
};

/** Stateless 64-bit mixing hash (SplitMix64 finalizer). */
inline u64
mix64(u64 x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/** Deterministic uniform [0,1) from a tuple of values. */
inline double
hash01(u64 a, u64 b, u64 c, u64 d = 0)
{
    const u64 h = mix64(a * 0x9e3779b97f4a7c15ull ^ mix64(b) ^
                        mix64(c + 0x517cc1b727220a95ull) ^ mix64(d + 1));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace buddy
