/**
 * @file
 * BuddyController: the Buddy Compression memory controller
 * (paper Section 3, Figures 1, 4 and 5a), fronted by the buddy::api
 * batched access plan.
 *
 * The controller owns the codec (instantiated from the codec table),
 * the metadata cache, and two BackingStores, chosen by name: device memory
 * and the buddy carve-out. Allocations are created with a target
 * compression ratio; each 128 B entry of an allocation has
 * `deviceSectors(target)` sectors in device memory and the remaining
 * sectors at a fixed pre-allocated slot in the buddy memory. Every
 * allocation owns a dense array of EntryRecords (core/metadata.h), one
 * per entry, indexed by the entry's index in the allocation: the
 * model's copy of the paper's dense metadata region, plus each
 * payload's exact bit length. Whether an entry overflows into its
 * buddy slot is derived from its record and the allocation's target.
 *
 * On a write the entry is compressed: if it fits the device-resident
 * sectors it is stored entirely on-device, otherwise the overflow goes to
 * the entry's buddy slot. Because every entry's buddy slot is fixed,
 * compressibility changes never move other data — the property that
 * distinguishes Buddy Compression from CPU main-memory compression
 * schemes (Section 3.3).
 *
 * The access surface is execute(AccessBatch&): submit a plan of
 * read/write/probe spans, get one AccessInfo per operation plus a
 * batch-level BatchSummary. execute() runs each op's functional pass
 * (codec, metadata, stores; it charges no time) and then times the op
 * through the batch's windows (core/window_pass.h), adding to the
 * batch's cycle totals from the traffic the functional pass recorded
 * (an AccessInfo is a traffic record; time is batch-level). Every
 * batch reuses the controller's CompressionScratch, so the path
 * performs zero per-entry heap allocations.
 *
 * All traffic is accounted per access so the experiments can report the
 * paper's metrics (buddy-access fraction, metadata hit rate, achieved
 * compression ratio). Traffic observers (api/traffic_sink.h) attach to
 * a ShardedEngine, which hands them each finished batch.
 */

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/access.h"
#include "api/backing_store.h"
#include "api/codec_registry.h"
#include "common/stats.h"
#include "compress/compressor.h"
#include "compress/sector.h"
#include "core/allocation.h"
#include "core/backing.h"
#include "core/firstfit.h"
#include "core/metadata.h"
#include "obs/metrics.h"

namespace buddy {

/**
 * How the windowed (MSHR-style) timing replay models a sharded run
 * (read by ShardedEngine from its shard template; a standalone
 * controller is a single GPU either way, so it ignores the mode).
 *
 *   Merged    one merged GPU stream: the shards run only the functional
 *             pass and the engine windows every batch's submission-
 *             order traffic once, through a single window pair — the
 *             single-GPU equivalent of the plan. The default.
 *   PerShard  N GPUs: each shard owns its own MSHR pool over its own
 *             links (each op is windowed through its own shard's
 *             group), with a cross-shard barrier at batch completion —
 *             the batch's windowed totals are the max over the
 *             participating shards' makespans.
 *
 * At one shard the two modes are bit-identical (tests pin this); both
 * are reproducible run-to-run.
 */
enum class WindowMode : u8 {
    Merged,
    PerShard,
};

/** Controller configuration. */
struct BuddyConfig
{
    /** GPU device memory capacity in bytes. */
    u64 deviceBytes = 1 * GiB;

    /** Carve-out size as a multiple of device memory (3x -> max 4x). */
    unsigned carveOutRatio = 3;

    /** Metadata cache geometry. */
    MetadataCacheConfig metadataCache;

    /** Codec name: "bpc" (the paper's choice), "bdi", "fpc" or "zero"
     *  (api/codec_registry.h). */
    std::string codec = "bpc";

    /** Backing store behind device memory (see api/backing_store.h). */
    std::string deviceBackend = "dram";

    /** Backing store behind the buddy carve-out ("peer" spills into a
     *  neighbouring shard's device memory over NVLink). */
    std::string buddyBackend = "host-um";

    /**
     * Link timing overrides for the two stores; each defaults to its
     * backend kind's calibration (the kind table behind
     * makeBackingStore()) when unset. See timing/link_model.h.
     */
    std::optional<timing::LinkTiming> deviceLink;
    std::optional<timing::LinkTiming> buddyLink;

    /**
     * Outstanding link round trips (W) of the windowed timing replay —
     * the MSHR pool the timing pass models (see timing/window.h). Every
     * executed batch's traffic is scheduled through one RequestWindow
     * per link in submission order (core/window_pass.h), filling the
     * *WindowCycles totals of BatchSummary (and of stats()); the
     * serial deviceCycles/buddyCycles fields are the same windows'
     * unloaded cost() and do not depend on W.
     * The default of 1 reproduces the serial deviceCycles/buddyCycles
     * totals bit-for-bit; larger windows overlap round-trip latency and
     * approach the bandwidth bound. 0 — or a window > 1 over a
     * non-free link with zero bandwidth in either direction — is a
     * fail-fast configuration error (checked at construction).
     */
    u64 linkWindow = 1;

    /**
     * Inline (de)compression unit timing override (see
     * timing::CodecTiming). Unset — the default — resolves to the
     * configured codec's row of the codec table (CodecInfo::timing:
     * zero/bdi/fpc/bpc carry distinct estimates); set it explicitly to
     * sweep codec speed (bench/ablation_codec_timing.cc) or to
     * timing::CodecTiming{} for a provably free unit. Only the
     * codecCycles / codecChargedWindowCycles fields depend on it; the
     * serial and windowed link totals never do.
     */
    std::optional<timing::CodecTiming> codecTiming;

    /**
     * Multi-GPU semantics of the windowed replay (see WindowMode).
     * Only the sharded engine reads it; a standalone controller is a
     * single GPU under either value.
     */
    WindowMode windowMode = WindowMode::Merged;

    /**
     * Shard ordinal a "peer" buddy backend maps. The sharded engine
     * wires a ring ((s + 1) mod shards); -1 marks an unwired peer
     * (standalone controllers).
     */
    int buddyPeerOrdinal = -1;
};

/**
 * The Buddy Compression controller (see file header).
 *
 * Addresses are allocation-relative virtual addresses; the controller
 * performs the page-table/GBBR translation internally.
 */
class BuddyController
{
  public:
    explicit BuddyController(const BuddyConfig &cfg);
    ~BuddyController();

    BuddyController(const BuddyController &) = delete;
    BuddyController &operator=(const BuddyController &) = delete;

    /**
     * Create a compressed allocation (the annotated cudaMalloc).
     *
     * @param name   debug name.
     * @param bytes  logical size; rounded up to a whole number of pages.
     * @param target target compression ratio.
     * @return the allocation's base address, which names it from then
     *         on, or std::nullopt if device or buddy memory is
     *         exhausted. Base addresses increase with every allocation
     *         and are never reused.
     *
     * On success the allocation's device and buddy slots are faulted in
     * (BackingStore::populate()), so resident memory follows reserved
     * bytes and later accesses take no page fault; a failed allocation
     * touches neither store.
     */
    std::optional<Addr> allocate(const std::string &name, u64 bytes,
                                 CompressionTarget target);

    /** Release the allocation at base address @p va (the matching
     *  cudaFree); panics unless @p va is a live allocation's base. */
    void free(Addr va);

    /**
     * Execute a batched access plan (the access surface).
     *
     * Fills batch.results() with one AccessInfo per planned operation
     * (in plan order) and batch.summary() with the batch-level traffic
     * totals: each op's functional pass, then its timing through the
     * batch's windows. The hot path performs no per-entry heap
     * allocations.
     *
     * @return the batch summary (also retained in the batch).
     */
    const BatchSummary &execute(AccessBatch &batch);

    /**
     * execute(), whose timing pass runs only when @p timed. Untimed,
     * every cycle total of the summary and stats_ (and each result's
     * codecCycles) stays 0, and windowBatch() (core/window_pass.h)
     * over new windows re-times the results later — at this
     * controller's config bit-identically to execute(), or at any other
     * W or codec timing without re-executing.
     */
    const BatchSummary &run(AccessBatch &batch, bool timed);

    /** All live allocations, keyed by base address (so in allocation
     *  order); allocationHolding() finds the one holding an address. */
    const std::map<Addr, Allocation> &allocations() const
    {
        return allocs_;
    }

    /** Device bytes currently reserved by allocations. */
    u64 deviceBytesReserved() const { return deviceUsed_; }

    /** Buddy-carve-out bytes currently reserved. */
    u64 buddyBytesReserved() const { return buddyUsed_; }

    /**
     * Achieved capacity compression ratio: logical bytes allocated over
     * device bytes reserved (the paper's headline metric).
     */
    double
    compressionRatio() const
    {
        return deviceUsed_ ? static_cast<double>(logicalUsed_) /
                                 static_cast<double>(deviceUsed_)
                           : 1.0;
    }

    /**
     * Running totals: the accumulate() fold of every batch summary
     * execute()/run() returned since construction.
     * `reads` counts reads only; probes are in `probes`.
     */
    const BatchSummary &stats() const { return stats_; }

    /** Entries currently spilling to buddy memory: a population gauge
     *  over the live allocations. */
    u64 overflowEntries() const { return overflowEntries_; }

    MetadataCache &metadataCache() { return *metaCache_; }
    const BuddyConfig &config() const { return cfg_; }

    /** The codec the controller compresses with. */
    const Compressor &codec() const { return *codec_; }

    /**
     * The resolved inline-unit timing the windowed replay charges
     * (de)compression at: BuddyConfig::codecTiming when set, else the
     * configured codec's timing in the codec table.
     */
    const timing::CodecTiming &codecTiming() const { return codecTiming_; }

    /** The device-memory backing store. */
    const BackingStore &deviceStore() const { return *device_; }

    /** The buddy carve-out (GBBR + backing store). */
    const BuddyCarveOut &carveOut() const { return buddy_; }

  private:
    /** The constructor, given the configured codec's table row. */
    BuddyController(const BuddyConfig &cfg, const api::CodecInfo &codec);

    // The engine runs its shards' ops through runOp(), folds their
    // summaries into stats_ and, under Merged, windows shard 0's group.
    friend class engine::ShardedEngine;

    /** Where one entry lives: its record and its two payload slots. */
    struct EntryLoc
    {
        EntryRecord *rec;    ///< the entry's record
        Addr deviceAddr;     ///< device byte address of the entry slot
        Addr buddyOffset;    ///< carve-out offset of the entry's buddy slot
        u64 deviceSlotBytes; ///< device bytes reserved for this entry
    };

    /**
     * Register this controller's metrics that its batch summary does
     * not carry under @p prefix in @p registry and update them as ops
     * execute: the codec-outcome counters (writes_zero /
     * writes_compressed / writes_raw), the stored-bits histogram and,
     * only when @p timed, the window-occupancy and window-stall
     * histograms. The sharded engine, the only caller, registers each
     * shard under "shard/s<k>/", next to that shard's summary counters,
     * which it folds itself.
     *
     * The registry must outlive the controller. Call with no batch in
     * flight.
     */
    void attachProbes(obs::MetricRegistry &registry,
                      const std::string &prefix, bool timed);

    /** The entry at @p va: an array index into the last allocation
     *  located while it covers @p va, else one map lookup first. */
    EntryLoc locate(Addr va);

    /**
     * Execute one planned operation's functional pass: codec, metadata
     * and stores. Updates @p summary (cycle fields excepted) and
     * returns the op's result, codecPass included.
     */
    AccessInfo executeOp(const AccessRequest &op, BatchSummary &summary);

    /** One op of run(): executeOp(), then, when @p timed, windowOp()
     *  through windows_ (reset per batch) and the window probes. */
    AccessInfo runOp(const AccessRequest &op, BatchSummary &summary,
                     bool timed);

    /**
     * Stable-address metric objects resolved once by attachProbes(),
     * for the per-op values no BatchSummary field carries. Inactive
     * (all-null) until attached.
     */
    struct MetricProbes
    {
        bool active = false;
        obs::Counter *writesZero = nullptr;
        obs::Counter *writesCompressed = nullptr;
        obs::Counter *writesRaw = nullptr;
        obs::LatencyHistogram *storedBits = nullptr;
        obs::LatencyHistogram *windowOccupancy = nullptr;
        obs::LatencyHistogram *windowStall = nullptr;
    };

    BuddyConfig cfg_;
    std::unique_ptr<Compressor> codec_;
    timing::CodecTiming codecTiming_; ///< resolved, see codecTiming()
    std::unique_ptr<BackingStore> device_;
    BuddyCarveOut buddy_;
    std::unique_ptr<MetadataCache> metaCache_;
    RegionAllocator deviceAlloc_;
    RegionAllocator buddyAlloc_;

    std::map<Addr, Allocation> allocs_;
    Addr nextVa_ = 0x10000000ull;
    u64 deviceUsed_ = 0;
    u64 buddyUsed_ = 0;
    u64 logicalUsed_ = 0;
    BatchSummary stats_;
    u64 overflowEntries_ = 0;

    /** The allocation locate() found last (a node of allocs_, whose
     *  inserts never move nodes); free() clears it. Null when none. */
    Allocation *lastAlloc_ = nullptr;

    /**
     * The windowed-replay state: one RequestWindow per link, grouped so
     * the combined (cross-link) frontier is tracked alongside the
     * per-link ones. Built once, after the link timings are validated,
     * and reset per timed batch, so windowed totals stay additive
     * across batches (a batch is the latency-overlap scope — the
     * outstanding-miss stream of one kernel). Under WindowMode::Merged
     * the engine times its merged batches through shard 0's group.
     */
    timing::WindowGroup windows_;

    /** The codec scratch every batch reuses: the hot path performs no
     *  per-entry heap allocation. */
    CompressionScratch scratch_;

    MetricProbes probes_;
};

} // namespace buddy
