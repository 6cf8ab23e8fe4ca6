/**
 * @file
 * BuddyController: the Buddy Compression memory controller
 * (paper Section 3, Figures 1, 4 and 5a), fronted by the buddy::api
 * batched access plan.
 *
 * The controller owns the codec (instantiated from the CodecRegistry),
 * the per-entry metadata (store + cache), and two pluggable
 * BackingStores: device memory and the buddy carve-out. Allocations are
 * created with a target compression ratio; each 128 B entry of an
 * allocation has `deviceSectors(target)` sectors in device memory and the
 * remaining sectors at a fixed pre-allocated slot in the buddy memory.
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
 * batch-level BatchSummary. execute() runs two passes: the functional
 * pass (codec, metadata, stores; it charges no time) and then one
 * timing pass over the batch (core/window_pass.h), which writes the
 * batch's cycle totals from the traffic the functional pass recorded
 * (an AccessInfo is a traffic record; time is batch-level). Every
 * batch reuses the controller's CompressionScratch, so the path
 * performs zero per-entry heap allocations.
 *
 * All traffic is accounted per access so the experiments can report the
 * paper's metrics (buddy-access fraction, metadata hit rate, achieved
 * compression ratio); observers subscribe to the same event stream via
 * attachSink() (see api/traffic_sink.h).
 */

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/access.h"
#include "api/backing_store.h"
#include "api/traffic_sink.h"
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
 *             links (each shard's execute() windows its sub-plan),
 *             with a cross-shard barrier at batch completion — the
 *             batch's windowed totals are the max over the
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

    /** Codec registry name ("bpc" is the paper's choice). */
    std::string codec = "bpc";

    /** Backing store behind device memory (see api/backing_store.h). */
    std::string deviceBackend = "dram";

    /** Backing store behind the buddy carve-out ("peer" spills into a
     *  neighbouring shard's device memory over NVLink). */
    std::string buddyBackend = "host-um";

    /**
     * Link timing overrides for the two stores; each defaults to its
     * backend kind's calibration (timing::defaultLinkTiming) when
     * unset. See timing/link_model.h.
     */
    std::optional<timing::LinkTiming> deviceLink;
    std::optional<timing::LinkTiming> buddyLink;

    /**
     * Outstanding link round trips (W) of the windowed timing replay —
     * the MSHR pool the timing pass models (see timing/window.h). Every
     * executed batch's traffic is scheduled through one RequestWindow
     * per link in submission order (core/window_pass.h), filling the
     * *WindowCycles totals of BatchSummary/BuddyStats; the
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
     * configured codec's registry timing (CodecInfo::timing:
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

/** Aggregated controller statistics. */
struct BuddyStats
{
    u64 reads = 0;
    u64 writes = 0;
    u64 deviceSectorTraffic = 0;
    u64 buddySectorTraffic = 0;
    u64 buddyAccesses = 0;  ///< accesses that touched buddy memory
    u64 overflowEntries = 0; ///< current entries spilling to buddy

    /** Serial device-link charges (BatchSummary::deviceCycles sums). All
     *  seven cycle totals are written by timed batches only, so they
     *  stay 0 on an engine shard under WindowMode::Merged, which times
     *  nothing (ShardedEngine::stats() reports the engine's own). */
    u64 deviceCycles = 0;
    u64 buddyCycles = 0; ///< serial buddy-link charges

    /** Windowed-replay device-link makespans, summed over batches
     *  (BuddyConfig::linkWindow; equals deviceCycles at window 1). */
    u64 deviceWindowCycles = 0;

    /** Windowed-replay buddy-link makespans, summed over batches. */
    u64 buddyWindowCycles = 0;

    /**
     * Combined (cross-link) windowed makespans summed over batches:
     * per batch, max(device, buddy) link makespan — the two links
     * drain in parallel (timing/window.h WindowGroup). Under the
     * engine's per-shard window mode the per-batch value is the N-GPU
     * makespan (max over shards) instead.
     */
    u64 combinedWindowCycles = 0;

    /** Unloaded codec latency charged (BatchSummary::codecCycles sums):
     *  additive serial occupancy of the inline unit. */
    u64 codecCycles = 0;

    /**
     * Codec-charged windowed makespans summed over batches: per batch,
     * the combined makespan plus the codec time the inline unit could
     * not hide behind link transfers (equal to combinedWindowCycles
     * when the codec timing is free). Under the engine's per-shard
     * window mode: the codec-charged N-GPU makespan.
     */
    u64 codecChargedWindowCycles = 0;

    /** Fraction of accesses that needed buddy memory. */
    double
    buddyAccessFraction() const
    {
        const u64 total = reads + writes;
        return total ? static_cast<double>(buddyAccesses) /
                           static_cast<double>(total)
                     : 0.0;
    }
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
     * @return the allocation id, or std::nullopt if device or buddy
     *         memory is exhausted.
     */
    std::optional<AllocId> allocate(const std::string &name, u64 bytes,
                                    CompressionTarget target);

    /** Release an allocation (the matching cudaFree). */
    void free(AllocId id);

    /**
     * Execute a batched access plan (the access surface).
     *
     * Fills batch.results() with one AccessInfo per planned operation
     * (in plan order) and batch.summary() with the batch-level traffic
     * totals: the functional pass over every op, then one timing pass
     * over the batch. Attached sinks then see one event per
     * op, built from the op and its finished result (api::makeEvent),
     * and the summary. The hot path performs no per-entry heap
     * allocations.
     *
     * @return the batch summary (also retained in the batch).
     */
    const BatchSummary &execute(AccessBatch &batch);

    /**
     * execute(), whose timing pass runs only when @p timed. Untimed,
     * every cycle total of the summary and stats_ (and each result's
     * codecCycles) stays 0, and windowBatch() (core/window_pass.h)
     * over fresh windows re-times the results later — at this
     * controller's config bit-identically to execute(), or at any other
     * W or codec timing without re-executing. Either way, attached
     * sinks see the batch's events once it is finished.
     */
    const BatchSummary &run(AccessBatch &batch, bool timed);

    /** Subscribe @p sink to the traffic event stream. */
    void attachSink(TrafficSink *sink) { hub_.attach(sink); }

    /** Unsubscribe @p sink. */
    void detachSink(TrafficSink *sink) { hub_.detach(sink); }

    /**
     * Register this controller's metrics under @p prefix in @p registry
     * and update them on every executed operation: operation and
     * codec-outcome counters (writes_zero / writes_compressed /
     * writes_raw), metadata hit/miss counters, and the batch-makespan,
     * stored-bits, window-occupancy and window-stall histograms. Every
     * value is simulated-time state, so with a "sim/"-rooted prefix the
     * metrics join the determinism contract (a single controller's
     * stream is pure; under the sharded engine, per-shard cache state
     * belongs under "shard/" — the engine picks the prefixes).
     *
     * The registry must outlive the controller (or detachMetrics()).
     * Call with no batch in flight.
     */
    void attachMetrics(obs::MetricRegistry &registry,
                       const std::string &prefix);

    /** Stop updating (previously attached) metrics. */
    void detachMetrics() { probes_.active = false; }

    /** The allocation covering @p va (panics if none). */
    const Allocation &allocationFor(Addr va) const;

    /** All live allocations. */
    const std::map<AllocId, Allocation> &allocations() const
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

    const BuddyStats &stats() const { return stats_; }
    void clearStats() { stats_ = BuddyStats{}; }

    MetadataCache &metadataCache() { return *metaCache_; }
    const BuddyConfig &config() const { return cfg_; }

    /** The codec the controller compresses with. */
    const Compressor &codec() const { return *codec_; }

    /**
     * The resolved inline-unit timing the windowed replay charges
     * (de)compression at: BuddyConfig::codecTiming when set, else the
     * configured codec's registry timing.
     */
    const timing::CodecTiming &codecTiming() const { return codecTiming_; }

    /** The device-memory backing store. */
    const BackingStore &deviceStore() const { return *device_; }

    /** The buddy carve-out (GBBR + backing store). */
    const BuddyCarveOut &carveOut() const { return buddy_; }

  private:
    // Under WindowMode::Merged the engine runs its shards untimed and
    // windows the merged batch itself.
    friend class engine::ShardedEngine;

    struct EntryLoc
    {
        const Allocation *alloc;
        u64 entryIdx;        ///< entry index within the allocation
        u64 globalEntryIdx;  ///< metadata index
        Addr deviceAddr;     ///< device byte address of the entry slot
        Addr buddyOffset;    ///< carve-out offset of the entry's buddy slot
        u64 deviceSlotBytes; ///< device bytes reserved for this entry
    };

    /** Per-entry model state needed to reassemble the payload. */
    struct EntryState
    {
        u32 bits = 0;        ///< exact compressed bit length
        bool overflow = false;
    };

    /**
     * Build the per-batch windowed-replay state: one RequestWindow per
     * link, grouped so the combined (cross-link) frontier is tracked
     * alongside the per-link ones. Created fresh for every windowed
     * batch so windowed totals stay additive across batches (a batch
     * is the latency-overlap scope — the outstanding-miss stream of
     * one kernel).
     */
    timing::WindowGroup makeWindows() const;

    /** attachMetrics(), whose window histograms (batch_combined_makespan,
     *  window_occupancy, window_stall) are registered only when
     *  @p timed, for a controller that only runs untimed. */
    void attachProbes(obs::MetricRegistry &registry,
                      const std::string &prefix, bool timed);

    EntryLoc locate(Addr va) const;

    /** Traffic implied by reading an entry with metadata @p meta. */
    AccessInfo trafficFor(const EntryLoc &loc, EntryMeta meta,
                          u32 payload_bits) const;

    /**
     * Execute one planned operation's functional pass: codec, metadata
     * and stores. Updates stats_ and @p summary (cycle fields excepted)
     * and returns the op's result, codecPass included; timing and
     * emission are run()'s.
     */
    AccessInfo executeOp(const AccessRequest &op, BatchSummary &summary);

    /**
     * Stable-address metric objects resolved once by attachMetrics(),
     * so the hot path updates them without a name lookup. Inactive
     * (all-null) until attached.
     */
    struct MetricProbes
    {
        bool active = false;
        obs::Counter *batches = nullptr;
        obs::Counter *reads = nullptr;
        obs::Counter *writes = nullptr;
        obs::Counter *probes = nullptr;
        obs::Counter *writesZero = nullptr;
        obs::Counter *writesCompressed = nullptr;
        obs::Counter *writesRaw = nullptr;
        obs::Counter *metadataHits = nullptr;
        obs::Counter *metadataMisses = nullptr;
        obs::Counter *buddyAccesses = nullptr;
        obs::LatencyHistogram *batchMakespan = nullptr;
        obs::LatencyHistogram *storedBits = nullptr;
        obs::LatencyHistogram *windowOccupancy = nullptr;
        obs::LatencyHistogram *windowStall = nullptr;
    };

    BuddyConfig cfg_;
    std::unique_ptr<Compressor> codec_;
    timing::CodecTiming codecTiming_; ///< resolved, see codecTiming()
    std::unique_ptr<BackingStore> device_;
    BuddyCarveOut buddy_;
    std::unique_ptr<MetadataStore> metaStore_;
    std::unique_ptr<MetadataCache> metaCache_;
    RegionAllocator deviceAlloc_;
    RegionAllocator buddyAlloc_;
    TrafficHub hub_;

    std::map<AllocId, Allocation> allocs_;
    std::map<Addr, AllocId> byVa_; // allocation base VA -> id
    AllocId nextId_ = 1;
    Addr nextVa_ = 0x10000000ull;
    u64 deviceUsed_ = 0;
    u64 buddyUsed_ = 0;
    u64 logicalUsed_ = 0;
    BuddyStats stats_;

    /** The codec scratch every batch reuses: the hot path performs no
     *  per-entry heap allocation. */
    CompressionScratch scratch_;

    MetricProbes probes_;

    std::unordered_map<u64, EntryState> entryState_;
};

} // namespace buddy
