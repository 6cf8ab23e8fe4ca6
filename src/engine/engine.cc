#include "engine/engine.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"
#include "common/table.h"
#include "core/window_pass.h"

namespace buddy {
namespace engine {

ShardedEngine::ShardedEngine(const EngineConfig &cfg)
    : cfg_(cfg), sums_(cfg.shards)
{
    BUDDY_CHECK(cfg.shards > 0, "engine needs at least one shard");
    shards_.reserve(cfg.shards);
    for (unsigned s = 0; s < cfg.shards; ++s) {
        BuddyConfig shard_cfg = cfg.shard;
        // Wire "peer" buddy carve-outs as a ring: shard s spills into
        // shard (s+1) mod N over NVLink peer access. An explicit
        // buddyPeerOrdinal in the template overrides the ring.
        if (shard_cfg.buddyBackend == "peer" &&
            shard_cfg.buddyPeerOrdinal < 0)
            shard_cfg.buddyPeerOrdinal =
                static_cast<int>((s + 1) % cfg.shards);
        shards_.push_back(std::make_unique<BuddyController>(shard_cfg));
    }
}

u64
ShardedEngine::shardSeed(unsigned s) const
{
    return splitmix64(cfg_.seed ^ (static_cast<u64>(s) + 1));
}

std::optional<Addr>
ShardedEngine::allocate(const std::string &name, u64 bytes,
                        CompressionTarget target)
{
    // Fixed ordinal hash: the same allocation sequence always lands on
    // the same shards.
    const unsigned n = shardCount();
    const unsigned home = static_cast<unsigned>(
        splitmix64(nextOrdinal_ ^ cfg_.shardSalt) % n);
    ++nextOrdinal_;

    for (unsigned probe = 0; probe < n; ++probe) {
        const unsigned s = (home + probe) % n;
        const auto shardVa = shards_[s]->allocate(name, bytes, target);
        if (!shardVa)
            continue;

        const Addr va = nextVa_;
        EngineAllocation &a = allocs_[va];
        a.shard = s;
        a.name = name;
        // page-rounded by the controller
        a.bytes = shards_[s]->allocations().at(*shardVa).bytes;
        a.target = target;
        a.va = va;
        a.shardVa = *shardVa;
        nextVa_ += a.bytes;
        logicalUsed_ += a.bytes;
        return va;
    }
    return std::nullopt;
}

void
ShardedEngine::free(Addr va)
{
    const auto it = allocs_.find(va);
    BUDDY_CHECK(it != allocs_.end(), "free of unknown engine allocation");
    const EngineAllocation &a = it->second;
    shards_[a.shard]->free(a.shardVa);
    logicalUsed_ -= a.bytes;
    allocs_.erase(it);
}

void
ShardedEngine::SummaryProbes::attach(obs::MetricRegistry &registry,
                                     const std::string (&prefix)[3],
                                     bool timed)
{
    const auto under = [&](SummaryFieldKind kind) {
        return prefix[static_cast<u8>(kind)];
    };
    batches = &registry.counter(under(SummaryFieldKind::Plan) + "batches");
    for (std::size_t i = 0; i < std::size(kSummaryFields); ++i) {
        const SummaryField &f = kSummaryFields[i];
        if (timed || !f.timed)
            fields[i] = &registry.counter(under(f.kind) + f.metric);
    }
    if (timed)
        makespan = &registry.histogram(under(SummaryFieldKind::Window) +
                                       "batch_combined_makespan");
}

void
ShardedEngine::SummaryProbes::fold(const BatchSummary &s) const
{
    batches->add();
    for (std::size_t i = 0; i < std::size(kSummaryFields); ++i)
        if (fields[i] != nullptr)
            fields[i]->add(s.*kSummaryFields[i].member);
    if (makespan != nullptr)
        makespan->add(s.combinedWindowCycles);
}

void
ShardedEngine::attachMetrics(obs::MetricRegistry &registry)
{
    const bool mergedMode = cfg_.shard.windowMode == WindowMode::Merged;
    probes_.active = true;

    // Each summary field's subtree follows its SummaryFieldKind: plan-
    // pure totals (the codec's unloaded latency included) under sim/,
    // per-shard cache state under shard/. Window totals join sim/ only
    // under Merged mode (the merged-stream replay); under PerShard they
    // are the N-GPU barrier makespans, which depend on the sharding by
    // design.
    const std::string wp = mergedMode ? "sim/engine/" : "shard/engine/";
    probes_.merged.attach(registry, {"sim/engine/", "shard/engine/", wp},
                          true);
    probes_.batchOps = &registry.histogram("sim/engine/batch_ops");
    if (mergedMode) {
        probes_.windowOccupancy =
            &registry.histogram("sim/engine/window_occupancy");
        probes_.windowStall =
            &registry.histogram("sim/engine/window_stall");
    }

    // Each shard's own view under shard/s<k>/, sharding-dependent: the
    // summary rows its runs write (no timed row under Merged, where the
    // shards run untimed) and its controller's own metrics.
    probes_.shards.assign(shardCount(), SummaryProbes{});
    for (unsigned s = 0; s < shardCount(); ++s) {
        const std::string prefix = strfmt("shard/s%u/", s);
        probes_.shards[s].attach(registry, {prefix, prefix, prefix},
                                 !mergedMode);
        shards_[s]->attachProbes(registry, prefix, !mergedMode);
    }
}

const BatchSummary &
ShardedEngine::execute(AccessBatch &batch)
{
    batch.submitSeq_ = nextSeq_++;
    const std::size_t n = batch.ops_.size();
    batch.results_.clear();
    batch.results_.reserve(n);
    for (const unsigned s : active_)
        sums_[s] = BatchSummary{};
    active_.clear();

    // Run each op in place on its shard, in submission order: each
    // entry's buddy slot is fixed (paper Section 3.3), so no shard's
    // state depends on another's. Runs of ops mostly stay inside one
    // allocation, so the last lookup is reused while it covers the
    // address. Under PerShard each op is windowed through its shard's
    // group, reset at the shard's first op of the batch. Under Merged
    // the shards run untimed and the batch is windowed once, after the
    // loop, through shard 0's group, reset per batch: the single-GPU
    // equivalent of the batch, so the charges do not depend on the
    // sharding.
    const bool perShard = cfg_.shard.windowMode == WindowMode::PerShard;
    timing::WindowGroup &group = shards_[0]->windows_;
    BatchSummary merged;
    const EngineAllocation *a = nullptr;
    for (const AccessRequest &op : batch.ops_) {
        if (a == nullptr || !a->contains(op.va))
            a = &allocationHolding(allocs_, op.va);
        BuddyController &shard = *shards_[a->shard];
        BatchSummary &sum = sums_[a->shard];
        if (sum.operations() == 0) {
            active_.push_back(a->shard);
            if (perShard)
                shard.windows_.reset();
        }
        AccessRequest local = op;
        local.va = a->shardVa + (op.va - a->va);
        shard.runOp(local, sum, perShard, batch.results_.emplace_back());
    }
    if (!perShard) {
        group.reset();
        windowBatch(batch.ops_, batch.results_, group, merged,
                    probes_.windowOccupancy, probes_.windowStall);
    }

    // Fold each shard's summary into its totals, its probes and the
    // merged summary (u64 sums, so the fold is order-independent and
    // bit-identical to a single-controller run of the same plan).
    for (const unsigned s : active_) {
        shards_[s]->stats_.accumulate(sums_[s]);
        if (probes_.active)
            probes_.shards[s].fold(sums_[s]);
        merged.accumulate(sums_[s]);
    }

    if (perShard && !active_.empty()) {
        // Per-shard window mode: each shard windowed its own ops over
        // its own links (one MSHR pool per GPU), and the serial
        // and codec totals folded above stand. The batch completes at a
        // cross-shard barrier, so its windowed totals are the max over
        // the participating shards' makespans, not the sum folded
        // above: the N-GPU makespan. At one shard they are bit-
        // identical to the merged pass (same stream, same timing),
        // which tests pin. An empty batch has no shard to take a min
        // over, so it skips this block and keeps its zero totals.

        // Imbalance inputs: Σ and min of the shards' makespans.
        const u64 sum_makespan = merged.combinedWindowCycles;
        u64 min_makespan = ~0ull;
        for (const SummaryField &f : kSummaryFields) {
            if (f.kind != SummaryFieldKind::Window)
                continue;
            merged.*f.member = 0;
            for (const unsigned shard : active_)
                merged.*f.member =
                    std::max(merged.*f.member, sums_[shard].*f.member);
        }
        for (const unsigned shard : active_)
            min_makespan =
                std::min(min_makespan, sums_[shard].combinedWindowCycles);

        // The spread between the shards' makespans is the per-batch GPU
        // load-imbalance signal (the barrier waits for the max).
        const u64 max_makespan = merged.combinedWindowCycles;
        ++imbalance_.batches;
        imbalance_.sumMin += min_makespan;
        imbalance_.sumMax += max_makespan;
        imbalance_.sumAll += sum_makespan;
        imbalance_.sumShards += active_.size();
        imbalance_.minMin = std::min(imbalance_.minMin, min_makespan);
        imbalance_.maxMax = std::max(imbalance_.maxMax, max_makespan);
        if (sum_makespan > 0) {
            // Integer ratio bucket: max/mean in tenths, computed as
            // max * 10 * shards / Σ so no floats enter the accumulator.
            const u64 tenths =
                max_makespan * 10 * active_.size() / sum_makespan;
            const u64 bucket = std::min<u64>(
                tenths - 10, WindowImbalanceStats::kRatioBuckets - 1);
            ++imbalance_.ratioHist[bucket];
        }
    }
    batch.summary_ = merged;

    // Per-tenant accounting: fold the batch's merged summary into the
    // submitting tenant's totals (untagged batches land under tenant
    // 0). A tenant's totals thus sum exactly its own batches — the
    // bookkeeping behind the service layer's isolation contract.
    tenantTotals_[batch.tenant()].add(merged);

    if (probes_.active) {
        probes_.merged.fold(merged);
        probes_.batchOps->add(n);
    }

    // Timeline hook: one record per batch, its spans in shard order.
    if (observer_ != nullptr) {
        obs::BatchRecord &rec = record_;
        rec.seq = batch.submitSeq_;
        rec.tenant = batch.tenant();
        rec.summary = merged;
        // The merged windows' peak concurrency (none under PerShard).
        rec.maxDeviceOutstanding =
            perShard ? 0 : group.device().maxOutstanding();
        rec.maxBuddyOutstanding =
            perShard ? 0 : group.buddy().maxOutstanding();
        rec.shards.clear();
        for (unsigned s = 0; s < shardCount(); ++s) {
            const BatchSummary &sum = sums_[s];
            if (sum.operations() == 0)
                continue;
            obs::BatchRecord::ShardSpan span;
            span.shard = s;
            span.ops = sum.operations();
            // Under Merged every span carries the batch's one (merged)
            // makespan.
            span.combinedCycles = perShard ? sum.combinedWindowCycles
                                           : merged.combinedWindowCycles;
            rec.shards.push_back(span);
        }
        observer_->onBatchComplete(rec);
    }

    // The sink sees the finished batch: ops in submission order,
    // engine-global addresses, window charges included.
    if (sink_)
        sink_->onBatch(batch);
    return batch.summary_;
}

std::future<BatchSummary>
ShardedEngine::submit(AccessBatch &batch)
{
    std::promise<BatchSummary> done;
    done.set_value(execute(batch));
    return done.get_future();
}

BatchSummary
ShardedEngine::stats() const
{
    // Every batch folds into exactly one tenant's totals, so their
    // fold is the engine's.
    BatchSummary total;
    for (const auto &entry : tenantTotals_)
        total.accumulate(entry.second.summary);
    return total;
}

u64
ShardedEngine::overflowEntries() const
{
    u64 total = 0;
    for (const auto &s : shards_)
        total += s->overflowEntries();
    return total;
}

u64
ShardedEngine::deviceBytesReserved() const
{
    u64 total = 0;
    for (const auto &s : shards_)
        total += s->deviceBytesReserved();
    return total;
}

u64
ShardedEngine::buddyBytesReserved() const
{
    u64 total = 0;
    for (const auto &s : shards_)
        total += s->buddyBytesReserved();
    return total;
}

// buddy-lint: allow-begin(float-cycle) derived read-out ratio over integer byte totals; not a cycle accumulator
double
ShardedEngine::compressionRatio() const
{
    const u64 device = deviceBytesReserved();
    return device ? static_cast<double>(logicalUsed_) /
                        static_cast<double>(device)
                  : 1.0;
}
// buddy-lint: allow-end(float-cycle)

u64
ShardedEngine::metadataAccesses() const
{
    u64 total = 0;
    for (const auto &s : shards_)
        total += s->metadataCache().accesses();
    return total;
}

u64
ShardedEngine::metadataMisses() const
{
    u64 total = 0;
    for (const auto &s : shards_)
        total += s->metadataCache().misses();
    return total;
}

} // namespace engine
} // namespace buddy
