/**
 * @file
 * buddy::engine — the sharded simulation engine.
 *
 * Buddy Compression's fixed buddy-slot property (paper Section 3.3:
 * a compressibility change never moves any other entry) makes 128 B
 * entries embarrassingly shardable: no access ever needs state owned by
 * another entry's allocation. The ShardedEngine exploits this by
 * partitioning allocations across N shards, each shard owning a complete
 * BuddyController (codec, entry records + metadata cache, device and buddy
 * backing stores). Shards model GPUs: the parallelism is simulated
 * (WindowMode::PerShard gives the N-GPU makespan, the peer ring models
 * NVLink peers), and every batch runs on the calling thread.
 *
 * Execution: execute(AccessBatch&) runs each op of the plan in place
 * on its shard, in submission order, translating its address to the
 * shard's, and writes the op's AccessInfo straight into the batch.
 * Under WindowMode::PerShard each op is windowed through its own
 * shard's group as it runs; under Merged the batch is windowed once,
 * through one group. The per-shard summaries fold into one
 * BatchSummary. Last it publishes the finished
 * batch: the per-tenant and metric accounting, the BatchRecord, and the
 * batch itself, handed to the attached sink (api/traffic_sink.h).
 *
 * Determinism: each shard sees its operations in submission order.
 * Shard assignment hashes the allocation ordinal with a fixed salt
 * (EngineConfig::shardSalt) and per-shard RNG seeds derive from
 * EngineConfig::seed, so runs are reproducible run-to-run. Cross-shard
 * traffic totals — including the serial link and codec cycle charges,
 * which are pure per-operation functions of the traffic — are
 * bit-identical to a single BuddyController executing the same plan;
 * per-op metadata hit/miss results also match whenever the metadata
 * working set fits the cache (no capacity evictions), which
 * tests/test_engine.cc pins.
 *
 * Threading: the engine is single-threaded, like BuddyController. Use
 * it from one thread at a time. The engine's sink and batch observer
 * run inside execute(), one batch at a time in submission order. They
 * must not call back into the engine.
 */

#pragma once

#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/access.h"
#include "api/traffic_sink.h"
#include "common/check.h"
#include "core/controller.h"
#include "obs/hooks.h"
#include "obs/metrics.h"

namespace buddy {
namespace engine {

/** Configuration of the sharded engine. */
struct EngineConfig
{
    /** Number of shards; each owns a complete BuddyController. */
    unsigned shards = 4;

    /**
     * Unused: the engine always runs on the calling thread, whatever
     * this holds. Kept only because the perfbench harness still
     * assigns it; the field goes once the harness stops doing so.
     */
    unsigned threads = 0;

    /**
     * Base seed for per-shard RNG streams (shardSeed()). Purely a
     * convenience for deterministic workload drivers — the engine itself
     * draws no randomness.
     */
    u64 seed = 0x9e3779b97f4a7c15ull;

    /**
     * Salt of the allocation-ordinal shard hash. Fixed so the
     * allocation-to-shard map — and therefore every run — is
     * reproducible run-to-run.
     */
    u64 shardSalt = 0xb5297a4d3c2d6ed3ull;

    /**
     * Template for every shard's BuddyController. deviceBytes is the
     * per-shard device capacity (total capacity = shards * deviceBytes).
     */
    BuddyConfig shard;
};

/** One engine-level allocation and its placement. */
struct EngineAllocation
{
    unsigned shard = 0;   ///< owning shard
    std::string name;
    u64 bytes = 0;        ///< logical size, page-rounded
    CompressionTarget target = CompressionTarget::None;
    Addr va = 0;          ///< engine-global virtual base address
    Addr shardVa = 0;     ///< base address (name) in the shard controller

    bool
    contains(Addr addr) const
    {
        return addr >= va && addr < va + bytes;
    }
};

/** Accumulated totals of a batch stream: a trace recording or replay,
 *  or one tenant's batches (ShardedEngine::tenantTotals). */
struct TraceTotals
{
    BatchSummary summary; ///< field sums over the batches
    u64 batches = 0;

    /** Fold one batch's summary in. */
    void
    add(const BatchSummary &s)
    {
        summary.accumulate(s);
        ++batches;
    }
};

/**
 * Cross-shard window-imbalance statistics, accumulated per batch under
 * WindowMode::PerShard: each batch's participating shards report their
 * own combined windowed makespans, and the spread between them is the
 * GPU load-imbalance signal (the barrier waits for the max). All
 * accumulators are integer sums, so the stats ride the engine's
 * run-to-run reproducibility contract; derived means/ratios are
 * computed at read time.
 */
struct WindowImbalanceStats
{
    /** Ratio histogram buckets: max/mean in 0.1 steps from 1.0; the
     *  last bucket collects every batch at or above 2.0. */
    static constexpr std::size_t kRatioBuckets = 11;

    u64 batches = 0;   ///< accumulated per-shard-mode batches
    u64 sumMin = 0;    ///< Σ over batches of min-over-shards makespan
    u64 sumMax = 0;    ///< Σ over batches of max-over-shards makespan
    u64 sumAll = 0;    ///< Σ over batches of Σ-over-shards makespans
    u64 sumShards = 0; ///< Σ over batches of participating shard count
    u64 minMin = ~0ull; ///< smallest per-batch min observed
    u64 maxMax = 0;     ///< largest per-batch max observed
    u64 ratioHist[kRatioBuckets] = {}; ///< per-batch max/mean buckets

    // buddy-lint: allow-begin(float-cycle) derived read-out ratios over the integer accumulators above; never fed back into any cycle total
    /** Mean over batches of the min-over-shards makespan. */
    double
    meanMin() const
    {
        return batches ? static_cast<double>(sumMin) /
                             static_cast<double>(batches)
                       : 0.0;
    }

    /** Mean over batches of the max-over-shards (barrier) makespan. */
    double
    meanMax() const
    {
        return batches ? static_cast<double>(sumMax) /
                             static_cast<double>(batches)
                       : 0.0;
    }

    /** Mean per-shard makespan across all batches and shards. */
    double
    meanShard() const
    {
        return sumShards ? static_cast<double>(sumAll) /
                               static_cast<double>(sumShards)
                         : 0.0;
    }

    /**
     * Fleet imbalance ratio: mean barrier makespan over mean per-shard
     * makespan. 1.0 = perfectly balanced shards; the excess is the
     * fraction of N-GPU makespan lost to load imbalance (the signal a
     * load-aware placement policy would drive down).
     */
    double
    imbalance() const
    {
        const double mean = meanShard();
        return mean > 0.0 ? meanMax() / mean : 1.0;
    }
    // buddy-lint: allow-end(float-cycle)
};

/** SplitMix64 — the engine's fixed shard-hash / seed-derivation mix. */
inline u64
splitmix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The sharded engine (see file header).
 *
 * Owns `shards` BuddyControllers. Addresses handed to execute() are
 * engine-global virtual addresses returned by allocate(); the engine
 * translates each to its shard's address as the op runs.
 */
class ShardedEngine
{
  public:
    explicit ShardedEngine(const EngineConfig &cfg);

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    /**
     * Create a compressed allocation on the shard selected by the fixed
     * ordinal hash (falling back to the next shard with capacity).
     * @return the allocation's engine-global base address, which names
     *         it from then on, or std::nullopt if every shard is out of
     *         device or buddy memory. Base addresses increase with
     *         every allocation and are never reused.
     */
    std::optional<Addr> allocate(const std::string &name, u64 bytes,
                                 CompressionTarget target);

    /** Release the allocation at base address @p va; panics unless
     *  @p va is a live allocation's base. */
    void free(Addr va);

    /**
     * Execute a batched access plan on the calling thread.
     *
     * Each op runs in place on its shard, in submission order. On
     * return, batch.results() holds one AccessInfo per operation in
     * submission order and batch.summary() the merged cross-shard
     * totals (also the return value). The engine keeps no reference to
     * the batch after it returns.
     *
     * Windowed timing (BuddyConfig::windowMode) runs once per batch.
     * Under the default Merged mode the shards run only the functional
     * pass and the engine then windows the batch's traffic
     * (BuddyConfig::linkWindow), in submission order, through one
     * WindowGroup, shard 0's, reset per batch — the
     * single-GPU equivalent of the plan — so the per-op and summary
     * *WindowCycles fields do not depend on the shard count, exactly
     * like the serial cycle totals (tests/test_engine.cc pins this).
     * Under PerShard mode each op is windowed through its own shard's
     * group as it runs (N GPUs, one MSHR pool each), those charges stand,
     * and the summary window fields carry the max over the
     * participating shards — the N-GPU makespan behind a cross-shard
     * barrier; still reproducible run-to-run, and bit-identical to
     * Merged at one shard.
     */
    const BatchSummary &execute(AccessBatch &batch);

    /**
     * execute() returning an already-ready future. Kept only for the
     * perfbench harness, which still calls it; it goes with
     * EngineConfig::threads.
     */
    std::future<BatchSummary> submit(AccessBatch &batch);

    /**
     * Subscribe @p sink, the engine's one sink, to the finished batches
     * (the file header says when). Re-attaching the attached sink is a
     * no-op; attaching a second, different sink is a fatal error.
     */
    void
    attachSink(TrafficSink *sink)
    {
        BUDDY_CHECK(sink_ == nullptr || sink_ == sink,
                    "a different traffic sink is already attached");
        sink_ = sink;
    }

    /** Unsubscribe @p sink; a no-op unless it is the one attached. */
    void
    detachSink(const TrafficSink *sink)
    {
        if (sink_ == sink)
            sink_ = nullptr;
    }

    /**
     * Register the engine's metrics in @p registry and update them on
     * every completed batch. Subtree discipline (obs/metrics.h):
     *
     *   sim/engine/    merged per-batch totals that are pure functions
     *                  of the plans — bit-identical across shard counts:
     *                  the batch count and batch_ops, the
     *                  SummaryFieldKind::Plan fields and, under
     *                  WindowMode::Merged, the Window fields, the batch
     *                  makespan, occupancy and stall;
     *   shard/...      reproducible run-to-run but sharding-dependent:
     *                  the Cache fields and, under PerShard mode, the
     *                  engine's N-GPU Window fields and makespan under
     *                  shard/engine/; under shard/s<k>/ each shard's
     *                  batch count and summary counters, folded by the
     *                  same code as the engine's, next to its
     *                  controller's codec outcomes and stored bits.
     *                  A shard registers only the rows its runs write:
     *                  under PerShard every row plus its makespan and
     *                  window histograms; under Merged the shards run
     *                  untimed, so no timed row (SummaryField::timed)
     *                  and no window metric.
     *
     * The registry must outlive the engine.
     */
    void attachMetrics(obs::MetricRegistry &registry);

    /**
     * Register @p observer to receive one BatchRecord per completed
     * batch (obs/hooks.h), called inside execute() in submission
     * order. Pass nullptr to detach.
     */
    void setBatchObserver(obs::BatchObserver *observer)
    {
        observer_ = observer;
    }

    unsigned shardCount() const { return static_cast<unsigned>(shards_.size()); }

    /** Shard @p s's controller (tests / per-shard introspection). */
    const BuddyController &shard(unsigned s) const { return *shards_[s]; }

    /**
     * Peer shard the buddy carve-out of shard @p s spills into, -1 when
     * the buddy backend is not "peer". The engine wires a ring
     * ((s + 1) mod shards) unless the shard template pins an ordinal.
     */
    int
    buddyPeerOf(unsigned s) const
    {
        return shards_[s]->carveOut().store().peerOrdinal();
    }

    /**
     * Deterministic per-shard RNG seed: splitmix64 over
     * EngineConfig::seed and the shard index. Identical across runs and
     * engines with the same config.
     */
    u64 shardSeed(unsigned s) const;

    /** All live engine allocations, keyed by base address (so in
     *  allocation order); allocationHolding() finds the one holding an
     *  address. */
    const std::map<Addr, EngineAllocation> &allocations() const
    {
        return allocs_;
    }

    /**
     * Running totals: the accumulate() fold of tenantTotals(), which
     * is the fold of every finished batch's summary. Traffic fields
     * equal the shard sums; the seven cycle fields are the engine's
     * per-batch ones. Under WindowMode::Merged they come from the
     * batch's one submission-order timing pass (the shards' own cycle
     * totals stay 0); under WindowMode::PerShard the serial
     * fields are the shard sums and the *WindowCycles fields the
     * max-over-shards (N-GPU) makespans. Metadata hits/misses are
     * per-shard cache state, so they depend on the shard count.
     */
    BatchSummary stats() const;

    /** Entries spilling to buddy memory, summed over the shards (see
     *  BuddyController::overflowEntries()). */
    u64 overflowEntries() const;

    /**
     * Per-tenant accumulated batch totals, keyed by the tenant id each
     * submitted batch was tagged with (AccessBatch::setTenant; untagged
     * batches land under tenant 0). A tenant's totals are field sums
     * over exactly its own batches, so — per-batch results being pure
     * functions of the plan under WindowMode::Merged — they are
     * bit-identical to the same stream executed alone on a private
     * engine, regardless of contention (the service isolation
     * contract; metadata hit/miss totals are per-shard cache state and
     * are accounted here but excluded from that contract).
     */
    const std::map<u32, TraceTotals> &tenantTotals() const
    {
        return tenantTotals_;
    }

    /**
     * Cross-shard window-imbalance statistics (see
     * WindowImbalanceStats). Accumulated only under
     * WindowMode::PerShard — under Merged there is one window group,
     * hence no per-shard spread.
     */
    const WindowImbalanceStats &windowImbalance() const
    {
        return imbalance_;
    }

    /** Device bytes reserved across all shards. */
    u64 deviceBytesReserved() const;

    /** Buddy-carve-out bytes reserved across all shards. */
    u64 buddyBytesReserved() const;

    /** Achieved capacity compression ratio across all shards. */
    // buddy-lint: allow(float-cycle) derived read-out ratio, not a cycle accumulator
    double compressionRatio() const;

    /** Merged metadata-cache accesses / misses across all shards. */
    u64 metadataAccesses() const;
    u64 metadataMisses() const;

    const EngineConfig &config() const { return cfg_; }

  private:
    /** The counters a batch's BatchSummary folds into: the engine's
     *  merged one or one shard's. fields[i] counts kSummaryFields[i]
     *  and is null when that row is not registered; makespan is null
     *  when the summary is untimed. */
    struct SummaryProbes
    {
        obs::Counter *batches = nullptr;
        obs::Counter *fields[std::size(kSummaryFields)] = {};
        obs::LatencyHistogram *makespan = nullptr;

        /** Register the batch count and each row under the prefix of
         *  its SummaryFieldKind, @p prefix[kind]; the timed rows and
         *  the makespan only when @p timed. */
        void attach(obs::MetricRegistry &registry,
                    const std::string (&prefix)[3], bool timed);
        void fold(const BatchSummary &s) const; ///< count one batch
    };

    /** Stable-address metric objects resolved once by attachMetrics()
     *  and updated by every execute(). Under PerShard the window
     *  histograms stay null: the shards' controllers carry them. */
    struct EngineProbes
    {
        bool active = false;
        SummaryProbes merged;
        std::vector<SummaryProbes> shards; ///< by shard index
        obs::LatencyHistogram *batchOps = nullptr;
        obs::LatencyHistogram *windowOccupancy = nullptr; // Merged only
        obs::LatencyHistogram *windowStall = nullptr;     // Merged only
    };

    EngineConfig cfg_;
    std::vector<std::unique_ptr<BuddyController>> shards_;
    TrafficSink *sink_ = nullptr;

    /** Per-shard state of the batch being executed, reused by every
     *  execute(). */
    std::vector<BatchSummary> sums_; ///< one per shard, by shard index
    std::vector<unsigned> active_;   ///< shards in use, first-seen order

    std::map<u32, TraceTotals> tenantTotals_;
    WindowImbalanceStats imbalance_;
    EngineProbes probes_;
    obs::BatchObserver *observer_ = nullptr;

    /** The record handed to observer_, reused by every execute(): its
     *  shard spans are cleared, not freed, between batches. */
    obs::BatchRecord record_;

    /** Submission sequence of the next batch (obs::BatchRecord::seq). */
    u64 nextSeq_ = 0;

    std::map<Addr, EngineAllocation> allocs_;
    u64 nextOrdinal_ = 0; ///< shard-hash input, counts all allocates
    Addr nextVa_ = 0x10000000ull;
    u64 logicalUsed_ = 0;
};

} // namespace engine

using engine::EngineAllocation;
using engine::EngineConfig;
using engine::ShardedEngine;
using engine::TraceTotals;
using engine::WindowImbalanceStats;

} // namespace buddy
