/**
 * @file
 * The benchmark's workload inputs: in-process captures built from a
 * seed, and the engine configuration every workload runs under.
 *
 * Each builder generates its data, records it once through a
 * ShardedEngine with a TraceRecorderSink attached, and returns the
 * serialized image. Replaying the image on an identically configured
 * engine must reproduce the recorded footer totals exactly.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

using buddy::u64;
using buddy::u8;

/** A recorded workload: the trace image plus what the checks need. */
struct Capture
{
    std::vector<u8> image; ///< serialized trace (TraceRecorderSink)
    u64 ops = 0;           ///< recorded operations
    u64 batches = 0;       ///< recorded batches
    u64 footprintBytes = 0; ///< logical bytes allocated
};

/**
 * The engine every workload runs on: 4 shards, the bpc codec, a
 * 32-deep link window and merged window mode (the repository
 * defaults), and one worker thread, so timings measure work rather
 * than thread hand-offs between CPUs. Per-shard device memory is a
 * quarter of @p footprintBytes plus slack; allocations that do not fit
 * their hashed shard fall back to the next one.
 */
buddy::EngineConfig engineConfig(u64 footprintBytes);

/** Called after every few recorded batches; the set-up timing leaves
 *  its time out (it re-picks the CPU). */
using BetweenBatches = std::function<void()>;

/**
 * hpc-sweep: the ten HPC benchmarks of Table 1, @p bytesPerBench each,
 * targets from a Profiler::decide pass; one write of the mid-run
 * snapshot, then @p sweeps full read sweeps, @p batchEntries per batch.
 */
Capture buildHpcCapture(u64 seed, u64 bytesPerBench, unsigned sweeps,
                        std::size_t batchEntries,
                        const BetweenBatches &between);

/**
 * dl-churn: the six DL benchmarks' pools, @p bytesPerBench each;
 * every snapshot is written and then read back.
 */
Capture buildDlCapture(u64 seed, u64 bytesPerBench,
                       std::size_t batchEntries,
                       const BetweenBatches &between);

/**
 * service-poisson's tenant stream: two allocations of @p entries mixed
 * compressibility entries each, written and read back @p passes times
 * with fresh data per pass, in @p batchEntries batches.
 */
Capture buildServiceCapture(u64 seed, std::size_t entries, unsigned passes,
                            std::size_t batchEntries,
                            const BetweenBatches &between);

} // namespace perfbench
