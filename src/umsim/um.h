/**
 * @file
 * Unified Memory oversubscription model (paper Section 4.3, Figure 12).
 *
 * The paper measures UM on real hardware (Power9 + V100 over 3 NVLink2
 * bricks); we model the first-order mechanisms that produce its
 * behaviour:
 *
 *  - Device memory holds a subset of the pages; a touched non-resident
 *    page takes a driver-handled fault (expensive, serialized in the
 *    driver) followed by a page migration over the interconnect.
 *  - Under oversubscription, migrations evict LRU pages; streaming
 *    working sets larger than device memory thrash, so the runtime
 *    grows super-linearly with the oversubscription factor.
 *  - "Pinned" mode keeps every allocation in host memory: no faults,
 *    but all traffic moves at interconnect (not HBM2) bandwidth, giving
 *    a roughly constant slowdown equal to the bandwidth ratio for
 *    memory-bound phases.
 *
 * The paper's observation — UM migration heuristics can be *worse* than
 * pinning everything — emerges when the re-use of a migrated page is
 * too low to amortize the fault + whole-page transfer.
 */

#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "workloads/benchmark.h"

namespace buddy {

/** UM model configuration. */
struct UmConfig
{
    /** UM migration granularity (driver default: 64 KB chunks). */
    u64 pageBytes = 64 * KiB;

    /** Device memory capacity available to the application. */
    u64 deviceBytes = 24 * MiB;

    /** Core clock (cycles below are at this clock), GHz. */
    double coreGhz = 1.3;

    /** Device bandwidth, GB/s. */
    double deviceGBps = 900.0;

    /** Interconnect bandwidth per direction, GB/s (3 bricks = 75). */
    double linkGBps = 75.0;

    /** Driver fault-handling cost per fault, microseconds (GPU faults
     *  are remote and serialized in the host driver; batching and
     *  prefetch amortize the raw ~20us round trip, Section 3.3). */
    double faultUs = 5.0;

    /** Memory operations to simulate (enough for several sweeps of the
     *  modelled footprint). */
    u64 memOps = 2000000;

    u64 seed = 7;
};

/** Result of one UM run. */
struct UmResult
{
    double cycles = 0;
    u64 faults = 0;
    u64 migratedPages = 0;
    double faultOverheadFraction = 0; ///< share of time in faults
};

/** UM execution modes of Figure 12. */
enum class UmMode : u8 {
    /** Everything fits (baseline: no oversubscription). */
    Resident,

    /** UM demand migration with LRU eviction. */
    Migrate,

    /** All allocations pinned in host memory. */
    Pinned,
};

/**
 * Simulate one benchmark under UM.
 *
 * @param spec benchmark (access profile + footprint shape reused).
 * @param cfg model configuration.
 * @param mode execution mode.
 * @param oversubscription fraction of the footprint *exceeding* device
 *        memory (0.0 = fits exactly, 0.3 = 30% oversubscribed).
 */
UmResult runUm(const BenchmarkSpec &spec, const UmConfig &cfg, UmMode mode,
               double oversubscription);

} // namespace buddy
