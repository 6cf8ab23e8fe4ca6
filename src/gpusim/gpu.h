/**
 * @file
 * The dependency-driven GPU performance simulator (paper Section 4.1).
 *
 * Modelled pipeline per memory operation:
 *
 *   warp issue (SM issue-slot contention, greedy-then-oldest order
 *   approximated by ready-time ordering)
 *     -> L1 (per-SM, line granularity, loads only)
 *     -> sectored shared L2
 *     -> DRAM channels / NVLink, depending on mode:
 *        Ideal:         missing sectors from DRAM, fine-grained fills.
 *        BandwidthOnly: whole compressed entry from DRAM (fewer sectors
 *                       when compressible, over-fetch for single-sector
 *                       requests), +codec latency.
 *        Buddy:         device-resident sectors from DRAM, overflow
 *                       sectors from NVLink, metadata cache consulted
 *                       (miss = parallel DRAM access), +codec latency.
 *
 * Warps execute a fixed number of memory operations with geometric
 * compute gaps; a warp may keep `memoryParallelism` requests in flight
 * (its dependency distance), which is how latency sensitivity
 * (FF_Lulesh) versus throughput workloads (DL GEMMs) are expressed.
 *
 * Compressed sizes are derived from the workload model's need buckets,
 * which tests pin to the real BPC encoder — so timing experiments agree
 * exactly with the functional library about what fits where.
 */

#pragma once

#include <queue>
#include <vector>

#include "common/rng.h"
#include "compress/sector.h"
#include "core/metadata.h"
#include "gpusim/cache.h"
#include "gpusim/config.h"
#include "timing/servers.h"
#include "workloads/image.h"

namespace buddy {

using timing::DramModel;
using timing::SectorLink;
using timing::SimTime;

/** Aggregate results of one simulation run. */
struct SimResult
{
    double cycles = 0;          ///< total execution time in core cycles
    u64 memOps = 0;             ///< warp memory operations executed
    u64 deviceSectors = 0;      ///< sectors moved to/from DRAM
    u64 linkSectors = 0;        ///< sectors moved over the interconnect
    double l1HitRate = 0;
    double l2HitRate = 0;
    double metadataHitRate = 0; ///< Buddy mode only
    double dramUtilization = 0;
    double buddyAccessFraction = 0; ///< fraction of L2 misses spilling
};

/** One benchmark run through the simulator (see file header). */
class GpuSimulator
{
  public:
    /**
     * @param cfg      simulator configuration (Table 2).
     * @param model    the workload's memory image.
     * @param targets  per-allocation compression targets (Buddy mode;
     *                 pass empty for Ideal/BandwidthOnly).
     * @param snapshot which snapshot's data contents to run against.
     */
    GpuSimulator(const SimConfig &cfg, const WorkloadModel &model,
                 std::vector<CompressionTarget> targets = {},
                 unsigned snapshot = WorkloadModel::kSnapshots / 2);

    /** Execute the run to completion. */
    SimResult run();

  private:
    struct Warp
    {
        SimTime ready = 0;
        u64 opsLeft = 0;
        u64 cursor = 0; ///< streaming position (entry index)
        unsigned sm = 0;
        Rng rng{0};
        /** Completion times of in-flight requests (min-heap). */
        std::priority_queue<SimTime, std::vector<SimTime>,
                            std::greater<>>
            inflight;
    };

    /** Traffic of one L2 miss for the line holding @p entry. */
    struct MissTraffic
    {
        unsigned deviceSectors = 0;
        unsigned linkSectors = 0;
        bool compressed = false; ///< pays codec latency
    };

    MissTraffic missTraffic(u64 entry, unsigned missing_sectors) const;

    /** True if the entry stays sector-addressable (no RMW, no whole-line
     *  fill): the ideal GPU, or raw entries without a buddy split. */
    bool fineGrained(u64 entry) const;

    SimTime serveMemOp(Warp &w, SimTime issue_time);

    const SimConfig cfg_;
    const WorkloadModel &model_;
    std::vector<CompressionTarget> targets_;
    unsigned snapshot_;

    std::vector<LineCache> l1_;
    SectoredCache l2_;
    MetadataCache metaCache_;
    DramModel dram_;
    SectorLink link_;
    std::vector<SimTime> smFree_;
    std::vector<Warp> warps_;

    /** Entry index -> allocation index (prefix table). */
    std::size_t allocOf(u64 entry) const;

    /** Outstanding L2 miss completions (finite MSHR pool). */
    std::priority_queue<SimTime, std::vector<SimTime>, std::greater<>>
        mshrs_;

    u64 l2Misses_ = 0;
    u64 buddyMisses_ = 0;

    static constexpr double kL1Latency = 30;
    static constexpr double kL2Latency = 190;
};

} // namespace buddy
