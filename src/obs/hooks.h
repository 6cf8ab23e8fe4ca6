/**
 * @file
 * Batch-completion observer hooks: the timeline companion of the
 * TrafficSink stream.
 *
 * The TrafficSink stream (api/traffic_sink.h) hands a sink each
 * finished AccessBatch — its ops and per-op results, the right view
 * for trace recording. A timeline consumer needs the batch's per-shard
 * split, which the AccessBatch does not hold, next to its makespan and
 * submission order. BatchRecord carries exactly that, and
 * BatchObserver receives one per completed batch.
 *
 * The sharded engine emits one record at the end of each execute(), so
 * completion order equals submission order, and `seq` is the batch's
 * submission sequence. Every field is simulated-time state (no wall
 * clocks), so the record stream is bit-identical run-to-run.
 */

#pragma once

#include <vector>

#include "api/access.h"
#include "common/types.h"

namespace buddy {
namespace obs {

/** One completed batch, as observed on the batch-completion hook. */
struct BatchRecord
{
    /** Submission sequence number (0-based, gap-free per producer). */
    u64 seq = 0;

    /** Tenant tag of the submitting batch (0 = anonymous). */
    u32 tenant = 0;

    /** The batch's merged traffic/timing summary. */
    api::BatchSummary summary;

    /** One participating shard's slice of the batch. */
    struct ShardSpan
    {
        unsigned shard = 0;

        /** Operations the shard executed. */
        u64 ops = 0;

        /**
         * Under WindowMode::PerShard: the shard's own combined windowed
         * makespan for its ops of the batch; the barrier waits for the
         * max of these. Under Merged the shards window nothing, and
         * every span carries the batch's merged makespan.
         */
        u64 combinedCycles = 0;
    };

    /** Participating shards in ascending shard order. */
    std::vector<ShardSpan> shards;

    /** Peak device-link round trips outstanding during the batch's
     *  windowed replay (0 when the producer does not track it). */
    u64 maxDeviceOutstanding = 0;

    /** Peak buddy-link round trips outstanding. */
    u64 maxBuddyOutstanding = 0;
};

/** Observer of batch completions (see file header). */
class BatchObserver
{
  public:
    virtual ~BatchObserver() = default;

    /**
     * One batch finished. Producers call it from the thread that ran
     * the batch, one batch at a time in `seq` order, so implementations
     * need no locking of their own.
     */
    virtual void onBatchComplete(const BatchRecord &record) = 0;
};

} // namespace obs
} // namespace buddy
