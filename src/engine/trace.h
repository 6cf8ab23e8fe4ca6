/**
 * @file
 * The access-trace layer: capture a workload once, replay it at scale.
 *
 * A trace is a compact binary file holding (i) the allocation table
 * (name, base VA, size, target ratio), (ii) the executed operation
 * stream — kind + entry address per op, plus the 128 B payload for
 * non-zero writes, or a back-reference for a write that repeats its
 * entry's last payload — with batch boundaries preserved, and (iii) a
 * footer with the recorder's accumulated traffic totals.
 *
 * TraceRecorderSink is the ShardedEngine's TrafficSink: the engine
 * hands it each finished batch, ops in submission order, so recorded
 * traces are deterministic byte-for-byte when batches are submitted
 * sequentially. TraceReplayer loads the file, resolving every recorded
 * address to (allocation ordinal, entry offset) once; a TraceCursor
 * re-creates the allocation table in recorded order on a fresh engine
 * or controller and re-executes the batches at the new allocations'
 * bases. Replaying onto an identically-configured target reproduces
 * the recorded totals exactly; traffic totals (sectors, buddy
 * accesses) are shard-count-independent, so a trace captured anywhere
 * can be replayed under any sharding.
 *
 * Format (all multi-byte integers are LEB128 varints unless noted):
 *
 *   magic "BDYT" (4 raw bytes), version u8 (5; no other version loads)
 *   allocCount; per allocation:
 *     nameLen, name bytes, baseVa/128, bytes, target (u8)
 *   record stream, one tag byte each:
 *     0x00..0x02  op: tag = kind (read/write/probe), then entryIdx
 *                 (va/128); tag|0x10 marks an all-zero write;
 *                 tag|0x40 marks a repeat: a write whose bytes equal
 *                 the k-th most recent payload record, with varint
 *                 k >= 1 after entryIdx; every other non-zero write
 *                 appends 128 raw payload bytes (a payload record)
 *     0xFE        batch end: opCount (redundant, checked on load)
 *     0xFF        footer: the accumulated totals — kSummaryFields
 *                 in order, then the batch count; a new field is a
 *                 new format version — then EOF
 *
 * Version 5 includes the repeat flag. A capture without repeats is
 * byte-identical to one written before the flag existed, and a reader
 * that predates the flag rejects it as unknown flag bits.
 *
 * Unchanged writes: the loader marks a write whose bytes its entry
 * already holds, and the controller keeps the stored encoding for it
 * instead of compressing again. A repeat record alone is not trusted:
 * the loader derives each mark from the stream, by the recorder's rule
 * (the repeat names the payload record of its entry's last non-zero
 * write, with no zero write to the entry since). A repeat that names
 * another entry's payload loads and replays, unmarked.
 *
 * Windowed timing and traces: the op stream carries no timing, so
 * a capture recorded at any BuddyConfig::linkWindow and either
 * BuddyConfig::windowMode replays under any other window or mode — the
 * replay target recomputes its own windowed totals from the
 * re-executed traffic. The footer's window totals record what the
 * *recording* configuration observed (under per-shard window mode the
 * window fields are accumulated N-GPU makespans).
 */

#pragma once

#include <string>
#include <vector>

#include "api/access.h"
#include "api/traffic_sink.h"
#include "common/types.h"
#include "compress/sector.h"
#include "engine/engine.h"

namespace buddy {
namespace engine {

/** One allocation-table entry of a trace. */
struct TraceAllocation
{
    std::string name;
    Addr va = 0; ///< base VA in the recording address space
    u64 bytes = 0;
    CompressionTarget target = CompressionTarget::None;
};

/**
 * TrafficSink that records the batch stream into the trace format.
 *
 * Usage: attach to a ShardedEngine, declare each allocation with
 * noteAllocation() right after allocating it, run the workload, then
 * save(). onBatch() copies each non-zero write's payload into the
 * stream, so the recorder has no lifetime coupling to the caller's
 * buffers — unless the bytes equal the payload last recorded for that
 * entry of a noted allocation: then it records a repeat, which costs a
 * few bytes instead of 128. A zero write clears the entry's reference.
 */
class TraceRecorderSink : public api::TrafficSink
{
  public:
    /** Declare an allocation (recorded in call order). */
    void noteAllocation(const std::string &name, Addr va, u64 bytes,
                        CompressionTarget target);

    /** Record each op of @p batch, then its batch mark and totals. */
    void onBatch(const AccessBatch &batch) override;

    /** Totals accumulated so far (one onBatch = one batch). */
    const TraceTotals &totals() const { return totals_; }

    u64 opCount() const { return ops_; }

    /** Serialize header + allocation table + stream + footer. */
    std::vector<u8> serialize() const;

    /** Serialize to @p path (fatal on I/O failure). */
    void save(const std::string &path) const;

  private:
    /** A noted allocation's entries and, per entry, 1 + the ordinal of
     *  its last payload record (0: none). lastPayload stays empty until
     *  the allocation's first non-zero write. */
    struct EntrySlots
    {
        u64 firstIdx; ///< base VA / kEntryBytes
        u64 entries;
        std::vector<u32> lastPayload;
    };

    /** The slot of entry @p idx in the noted allocation that starts
     *  last at or below it; nullptr outside every noted allocation, or
     *  when its slots are not allocated yet and @p create is false. */
    u32 *lastPayloadSlot(u64 idx, bool create);

    std::vector<TraceAllocation> allocs_;
    std::vector<EntrySlots> slots_; ///< sorted by firstIdx
    std::vector<u64> payloadAt_;    ///< stream offset per payload record
    std::vector<u8> stream_;        ///< op + batch-mark records
    u64 ops_ = 0;
    TraceTotals totals_;
};

/**
 * Replays a recorded trace against a fresh engine or controller.
 *
 * load() parses the file into one op table, resolving each op to the
 * recorded allocation that holds it (an ordinal) and its entry offset
 * there; an op outside every allocation fails the load. replay()
 * re-creates the allocations in recorded order on the target, then
 * re-executes every recorded batch (@p repeat times) at the target's
 * allocation bases. Reads land in an internal scratch buffer.
 */
class TraceCursor;

class TraceReplayer
{
  public:
    /** Parse the regular file @p path (fatal on malformed input, I/O
     *  failure, or a path that is not a regular file). */
    void load(const std::string &path);

    /** Parse an in-memory image (fatal on malformed input). */
    void loadImage(std::vector<u8> image);

    const std::vector<TraceAllocation> &allocations() const
    {
        return allocs_;
    }

    /** Totals recorded in the trace footer. */
    const TraceTotals &recordedTotals() const { return recorded_; }

    u64 batchCount() const { return batchStart_.size() - 1; }
    u64 opCount() const { return table_.size(); }

    /**
     * Drive @p target from the trace.
     * @param repeat replay the whole batch stream this many times.
     * @return the totals accumulated across the replayed batches.
     */
    TraceTotals replay(ShardedEngine &target, unsigned repeat = 1) const;
    TraceTotals replay(BuddyController &target, unsigned repeat = 1) const;

  private:
    friend class TraceCursor;

    /** One parsed operation: entry @c offset of allocation @c alloc (an
     *  ordinal into allocations()); payload points into image_ or zeros. */
    struct Op
    {
        const u8 *payload = nullptr; ///< writes only
        u32 offset = 0;
        u16 alloc = 0;
        AccessKind kind = AccessKind::Probe;
        bool unchanged = false; ///< the entry holds payload's bytes already
    };
    static_assert(sizeof(Op) == 16, "one op table entry is 16 bytes");

    template <typename Target>
    TraceTotals replayInto(Target &target, unsigned repeat) const;

    std::vector<u8> image_;
    std::vector<TraceAllocation> allocs_;
    std::vector<Op> table_;                  ///< every batch's ops, in order
    std::vector<std::size_t> batchStart_{0}; ///< per batch, then the end
    TraceTotals recorded_;
};

/**
 * Incremental replay cursor: the batch-at-a-time view of a loaded
 * trace that the service layer's tenant sessions stream from (and the
 * whole-capture replay() is itself built on).
 *
 * Construction re-creates the capture's allocation table on the target
 * — giving this cursor its own VA namespace, so many cursors over the
 * same capture coexist on one engine — and keeps only each created
 * allocation's base VA. next() then fills one recorded batch per call
 * from the trace's shared op table, in stream order, wrapping
 * @p repeat times; an op's address is its allocation's base plus its
 * entry offset, the same on every pass. The TraceReplayer must outlive
 * the cursor (it holds the op table, and write payloads point into its
 * loaded image); the created allocations stay live on the target.
 *
 * next() carries the loader's unchanged-write marks into the plan, and
 * a marked write keeps the bytes its entry holds. Those marks hold
 * only while the cursor's batches are the only writes to its
 * allocations: users may read them, but a write outside the batches
 * voids the marks (a marked write to an entry zeroed that way dies).
 */
class TraceCursor
{
  public:
    /**
     * Bind a cursor to @p trace, creating its allocations on
     * @p target (a ShardedEngine or BuddyController).
     * @param repeat     stream the whole batch sequence this many times.
     * @param namePrefix prepended to the recorded allocation names
     *        (e.g. a tenant name, for per-session attribution).
     */
    template <typename Target>
    TraceCursor(const TraceReplayer &trace, Target &target,
                unsigned repeat = 1, const std::string &namePrefix = "")
        : trace_(&trace), repeat_(repeat)
    {
        for (const TraceAllocation &a : trace.allocations()) {
            const auto va =
                target.allocate(namePrefix + a.name, a.bytes, a.target);
            BUDDY_CHECK(va.has_value(), "trace cursor target out of memory");
            bases_.push_back(*va);
        }
    }

    /** Batches the full stream yields (recorded batches x repeat). */
    u64 totalBatches() const { return trace_->batchCount() * repeat_; }

    /** Batches handed out so far. */
    u64 builtBatches() const { return built_; }

    /** True once every pass of the stream has been handed out. */
    bool done() const { return built_ >= totalBatches(); }

    /**
     * Fill @p plan with the next recorded batch (cleared first; ops in
     * recorded order, at this cursor's allocations). Read destinations
     * point into @p readBuf, which is resized to the batch's needs and
     * must stay alive and untouched until the plan has executed.
     * @return false — with @p plan left empty — once the stream is
     *         exhausted.
     */
    bool next(AccessBatch &plan, std::vector<u8> &readBuf);

  private:
    const TraceReplayer *trace_;
    std::vector<Addr> bases_; ///< target base VA, by allocation ordinal
    unsigned repeat_ = 1;
    u64 built_ = 0;
};

} // namespace engine

using engine::TraceCursor;
using engine::TraceRecorderSink;
using engine::TraceReplayer;

} // namespace buddy
