/**
 * @file
 * The batched access plan: the public memory-access surface of the
 * buddy::api facade.
 *
 * Buddy Compression is a throughput system — every paper metric
 * (buddy-access fraction, metadata hit rate, achieved ratio) is an
 * aggregate over millions of 128 B entry accesses. The api layer
 * therefore makes the *batch* the first-class unit of work: callers
 * build an AccessBatch of read/write/probe spans and submit it once via
 * BuddyController::execute(). The controller fills one AccessInfo per
 * operation plus a batch-level BatchSummary, reusing a single
 * CompressionScratch across the whole batch so the hot path performs
 * zero per-entry heap allocations. A single access is a one-op batch.
 */

#pragma once

#include <iterator>
#include <vector>

#include "common/types.h"

namespace buddy {

class BuddyController;

namespace engine {
class ShardedEngine;
class TraceCursor;
}

namespace api {

/** What one access-plan operation does. */
enum class AccessKind : u8 {
    Read,  ///< decompress one entry into `dst`
    Write, ///< compress and store one entry from `src`
    Probe, ///< account the traffic a read would generate, move no data
};

/** One 128 B entry operation in an access plan. */
struct AccessRequest
{
    AccessKind kind = AccessKind::Probe;

    /**
     * A write whose bytes the entry already holds: the controller keeps
     * the stored encoding instead of compressing again. Only a
     * TraceCursor sets it, from marks the trace loader derives (see
     * engine/trace.h); every other write encodes. It sits in the
     * padding after kind, so the struct stays 32 bytes.
     */
    bool unchanged = false;

    /** Entry-aligned virtual address. */
    Addr va = 0;

    /** Write payload (kEntryBytes bytes); null for Read/Probe. */
    const u8 *src = nullptr;

    /** Read destination (kEntryBytes bytes); null for Write/Probe. */
    u8 *dst = nullptr;
};
static_assert(sizeof(AccessRequest) == 32, "an access plan op is 32 bytes");

/** Traffic breakdown of a single entry access. */
struct AccessInfo
{
    /** 32 B sectors transferred from/to device memory. */
    unsigned deviceSectors = 0;

    /** 32 B sectors transferred over the interconnect to buddy memory. */
    unsigned buddySectors = 0;

    /** True if the metadata lookup hit in the metadata cache. */
    bool metadataHit = true;

    /** True if the entry is all zeros (described by metadata alone). */
    bool isZero = false;

    /**
     * True if the access ran the inline (de)compression unit:
     * compression on non-zero writes (even when the result is stored
     * Raw), decompression on reads/probes of compressed entries.
     */
    bool codecPass = false;

    /** Exact stored payload size in bits (0 for zero entries). This
     *  field, isZero and codecPass sit in the padding after
     *  metadataHit, so the struct stays 24 bytes on LP64. */
    u32 storedBits = 0;

    /**
     * Unloaded (de)compression latency of this access
     * (CodecTiming::latency when codecPass is set, else 0), written by
     * the batch's one timing pass (core/window_pass.h); an untimed run
     * leaves it 0. The only time an AccessInfo carries: link charges
     * are batch-level and live in BatchSummary. It stays only because
     * perfbench reads "codecCycles > 0" as its codec-pass marker;
     * codecPass carries the same fact.
     */
    Cycles codecCycles = 0;

    /** True if any part of the entry lives in buddy memory. */
    bool
    usedBuddy() const
    {
        return buddySectors > 0;
    }
};

/** Batch-level traffic summary filled by execute(). */
struct BatchSummary
{
    u64 reads = 0;
    u64 writes = 0;
    u64 probes = 0;
    u64 deviceSectors = 0;
    u64 buddySectors = 0;
    u64 metadataHits = 0;
    u64 metadataMisses = 0;
    u64 buddyAccesses = 0; ///< operations that touched buddy memory

    /** Serial device-link charges of the batch: each op's unloaded
     *  device round trip (RequestWindow::cost), summed. Like every
     *  cycle total here, written by the timing pass from the ops'
     *  traffic and 0 after an untimed run. */
    u64 deviceCycles = 0;

    /** Serial buddy/interconnect-link charges of the batch. */
    u64 buddyCycles = 0;

    /**
     * Windowed-replay makespan of the batch's device-link stream: the
     * simulated cycles the batch needs with BuddyConfig::linkWindow
     * round trips in flight (timing/window.h). Equals deviceCycles at
     * linkWindow == 1; approaches the pipe's transfer occupancy as the
     * window grows.
     */
    u64 deviceWindowCycles = 0;

    /** Windowed-replay makespan of the buddy-link stream. */
    u64 buddyWindowCycles = 0;

    /**
     * Combined (cross-link) windowed makespan of the batch: the device
     * and buddy links drain in parallel, so the batch's windowed replay
     * finishes at max(deviceWindowCycles, buddyWindowCycles) — tighter
     * than windowTotalCycles(), which sums the per-link makespans. In
     * the engine's per-shard window mode (BuddyConfig::windowMode) this
     * carries the N-GPU makespan instead: the max over the shards'
     * combined makespans (the cross-shard barrier at batch completion).
     */
    u64 combinedWindowCycles = 0;

    /**
     * Total unloaded codec latency the batch charged (AccessInfo::
     * codecCycles sums): serial occupancy of the inline unit, additive
     * across batches and shards. 0 exactly when the codec timing is
     * free or no op exercised the codec.
     */
    u64 codecCycles = 0;

    /**
     * Codec-charged windowed makespan of the batch: the combined
     * (cross-link) makespan plus the codec time the pipelined unit
     * could not hide behind link transfers — the headline
     * "codec-charged" figure the fig10/fig12 lines report. Equals
     * combinedWindowCycles when the codec timing is free. Under
     * per-shard window mode it carries the codec-charged N-GPU
     * makespan (max over shards), like combinedWindowCycles.
     */
    u64 codecChargedWindowCycles = 0;

    u64 operations() const { return reads + writes + probes; }

    /**
     * Fold another summary into this one (plain field sums over
     * kSummaryFields; the shared accumulation the trace totals, the
     * engine's per-tenant accounting, and the service scheduler all
     * use). Note the window fields sum per-batch makespans — additive
     * bookkeeping, not a joint makespan.
     */
    void accumulate(const BatchSummary &o);

    /** Total link cycles the batch charged (occupancy, additive). */
    u64 totalCycles() const { return deviceCycles + buddyCycles; }

    /** Total windowed link cycles (per-link makespans, additive). */
    u64 windowTotalCycles() const
    {
        return deviceWindowCycles + buddyWindowCycles;
    }

    /** Fraction of the batch's operations that needed buddy memory. */
    double
    buddyAccessFraction() const
    {
        const u64 total = operations();
        return total ? static_cast<double>(buddyAccesses) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** What a BatchSummary field's value depends on: its determinism
 *  contract under the sharded engine and the service scheduler. */
enum class SummaryFieldKind : u8 {
    Plan,   ///< a pure function of the plan: identical under any sharding
    Cache,  ///< per-shard metadata-cache state: depends on the sharding
    Window, ///< windowed makespan: plan-pure only under WindowMode::Merged
};

/** One BatchSummary field: its metric name, its member and its kind. */
struct SummaryField
{
    const char *metric;
    u64 BatchSummary::*member;
    SummaryFieldKind kind;
    bool timed; ///< written by the timing pass: 0 after an untimed run
};

/**
 * Every BatchSummary field, in declaration order. The one list of the
 * fields: accumulate(), operator==, the trace footer, the engine's and
 * its shards' metrics and service::isolationEqual() all loop over it.
 */
inline constexpr SummaryField kSummaryFields[] = {
    {"reads", &BatchSummary::reads, SummaryFieldKind::Plan, false},
    {"writes", &BatchSummary::writes, SummaryFieldKind::Plan, false},
    {"probes", &BatchSummary::probes, SummaryFieldKind::Plan, false},
    {"device_sectors", &BatchSummary::deviceSectors,
     SummaryFieldKind::Plan, false},
    {"buddy_sectors", &BatchSummary::buddySectors,
     SummaryFieldKind::Plan, false},
    {"metadata_hits", &BatchSummary::metadataHits,
     SummaryFieldKind::Cache, false},
    {"metadata_misses", &BatchSummary::metadataMisses,
     SummaryFieldKind::Cache, false},
    {"buddy_accesses", &BatchSummary::buddyAccesses,
     SummaryFieldKind::Plan, false},
    {"device_cycles", &BatchSummary::deviceCycles,
     SummaryFieldKind::Plan, true},
    {"buddy_cycles", &BatchSummary::buddyCycles, SummaryFieldKind::Plan, true},
    {"device_window_cycles", &BatchSummary::deviceWindowCycles,
     SummaryFieldKind::Window, true},
    {"buddy_window_cycles", &BatchSummary::buddyWindowCycles,
     SummaryFieldKind::Window, true},
    {"combined_window_cycles", &BatchSummary::combinedWindowCycles,
     SummaryFieldKind::Window, true},
    {"codec_cycles", &BatchSummary::codecCycles, SummaryFieldKind::Plan, true},
    {"codec_charged_window_cycles", &BatchSummary::codecChargedWindowCycles,
     SummaryFieldKind::Window, true},
};

static_assert(sizeof(BatchSummary) == sizeof(u64) * std::size(kSummaryFields),
              "every BatchSummary field needs a kSummaryFields row");

inline void
BatchSummary::accumulate(const BatchSummary &o)
{
    for (const SummaryField &f : kSummaryFields)
        this->*f.member += o.*f.member;
}

/** Every field equal. */
inline bool
operator==(const BatchSummary &a, const BatchSummary &b)
{
    for (const SummaryField &f : kSummaryFields)
        if (a.*f.member != b.*f.member)
            return false;
    return true;
}

/**
 * An ordered plan of entry accesses plus, after execution, the per-op
 * results and the batch summary. Reusable: clear() keeps the capacity so
 * steady-state batch submission allocates nothing.
 */
class AccessBatch
{
  public:
    AccessBatch() = default;

    explicit AccessBatch(std::size_t expected_ops)
    {
        reserve(expected_ops);
    }

    void
    reserve(std::size_t ops)
    {
        ops_.reserve(ops);
        results_.reserve(ops);
    }

    /** Drop all operations and results; capacity is retained. */
    void
    clear()
    {
        ops_.clear();
        results_.clear();
        summary_ = BatchSummary{};
    }

    /** Plan a read of the entry at @p va into @p out (kEntryBytes). */
    void
    read(Addr va, u8 *out)
    {
        AccessRequest r;
        r.kind = AccessKind::Read;
        r.va = va;
        r.dst = out;
        ops_.push_back(r);
    }

    /** Plan a write of @p data (kEntryBytes) to the entry at @p va. */
    void
    write(Addr va, const u8 *data)
    {
        AccessRequest r;
        r.kind = AccessKind::Write;
        r.va = va;
        r.src = data;
        ops_.push_back(r);
    }

    /** Plan a traffic probe of the entry at @p va (no data movement). */
    void
    probe(Addr va)
    {
        AccessRequest r;
        r.kind = AccessKind::Probe;
        r.va = va;
        ops_.push_back(r);
    }

    std::size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }

    const std::vector<AccessRequest> &ops() const { return ops_; }

    /** Per-operation results, parallel to ops(); valid after execute(). */
    const std::vector<AccessInfo> &results() const { return results_; }

    const AccessInfo &result(std::size_t i) const { return results_[i]; }

    /** Batch-level traffic summary; valid after execute(). */
    const BatchSummary &summary() const { return summary_; }

    /**
     * Tag the batch with the submitting tenant (service front end;
     * see src/service/). The sharded engine threads the tag into its
     * per-tenant accounting and the batch's BatchRecord. 0 — the
     * default — is the anonymous tenant. The tag survives clear(): it
     * names the stream, not the plan.
     */
    void setTenant(u32 tenant) { tenant_ = tenant; }

    /** The submitting tenant's id (0 = untagged). */
    u32 tenant() const { return tenant_; }

    /**
     * The engine submit sequence stamped by ShardedEngine::execute()
     * (valid once execute() returns; 0 before any submission). The
     * batch's identity for completion-hook consumers: BatchRecords and
     * service-scheduler timeline spans carry the same sequence, so
     * per-batch data from both sides joins on it.
     */
    u64 submitSeq() const { return submitSeq_; }

  private:
    // Fill results_ / summary_ / submitSeq_ after execution; the
    // cursor marks unchanged writes.
    friend class ::buddy::BuddyController;
    friend class ::buddy::engine::ShardedEngine;
    friend class ::buddy::engine::TraceCursor;

    std::vector<AccessRequest> ops_;
    std::vector<AccessInfo> results_;
    BatchSummary summary_;
    u32 tenant_ = 0;
    u64 submitSeq_ = 0;
};

} // namespace api

// The access-plan types are part of the controller's public surface;
// hoist them into the library namespace.
using api::AccessBatch;
using api::AccessInfo;
using api::AccessKind;
using api::AccessRequest;
using api::BatchSummary;
using api::kSummaryFields;
using api::SummaryField;
using api::SummaryFieldKind;

} // namespace buddy
