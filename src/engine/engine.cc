#include "engine/engine.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <thread>

#include "common/check.h"
#include "common/table.h"
#include "core/window_pass.h"

namespace buddy {
namespace engine {

/**
 * One worker thread plus the queues of the shards it owns. A shard's
 * queue lives with its owning worker and is only ever popped by that
 * worker, so per-shard execution is serial and FIFO by construction.
 */
struct ShardedEngine::Worker
{
    std::mutex m;
    std::condition_variable cv;
    bool stop = false;
    std::vector<unsigned> shards; ///< shard ids this worker serves

    /** Task: (job, sub index). Parallel to `shards`. */
    std::vector<std::deque<std::pair<std::shared_ptr<BatchJob>, unsigned>>>
        queues;

    std::size_t cursor = 0; ///< round-robin scan position
    std::thread th;
};

ShardedEngine::ShardedEngine(const EngineConfig &cfg)
    : cfg_(cfg)
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

    const unsigned nthreads =
        std::min(cfg.threads == 0 ? cfg.shards : cfg.threads, cfg.shards);
    workers_.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t)
        workers_.push_back(std::make_unique<Worker>());
    for (unsigned s = 0; s < cfg.shards; ++s) {
        Worker &w = *workers_[workerOf(s)];
        w.shards.push_back(s);
        w.queues.emplace_back();
    }
    for (auto &w : workers_)
        w->th = std::thread([this, &w = *w] { workerMain(w); });
}

ShardedEngine::~ShardedEngine()
{
    for (auto &w : workers_) {
        {
            std::lock_guard<std::mutex> lk(w->m);
            w->stop = true;
        }
        w->cv.notify_one();
    }
    for (auto &w : workers_)
        w->th.join();
}

unsigned
ShardedEngine::workerOf(unsigned shard) const
{
    return shard % static_cast<unsigned>(workers_.size());
}

u64
ShardedEngine::shardSeed(unsigned s) const
{
    return splitmix64(cfg_.seed ^ (static_cast<u64>(s) + 1));
}

std::optional<AllocId>
ShardedEngine::allocate(const std::string &name, u64 bytes,
                        CompressionTarget target)
{
    // Fixed ordinal hash: the same allocation sequence always lands on
    // the same shards, independent of thread count and scheduling.
    const unsigned n = shardCount();
    const unsigned home = static_cast<unsigned>(
        splitmix64(nextOrdinal_ ^ cfg_.shardSalt) % n);
    ++nextOrdinal_;

    for (unsigned probe = 0; probe < n; ++probe) {
        const unsigned s = (home + probe) % n;
        const auto shardId = shards_[s]->allocate(name, bytes, target);
        if (!shardId)
            continue;

        const Allocation &sa = shards_[s]->allocations().at(*shardId);
        EngineAllocation a;
        a.id = nextId_++;
        a.shard = s;
        a.shardId = *shardId;
        a.name = name;
        a.bytes = sa.bytes; // page-rounded by the controller
        a.target = target;
        a.va = nextVa_;
        a.shardVa = sa.va;
        nextVa_ += a.bytes;
        logicalUsed_ += a.bytes;
        byVa_[a.va] = a.id;
        allocs_[a.id] = a;
        return a.id;
    }
    return std::nullopt;
}

void
ShardedEngine::free(AllocId id)
{
    const auto it = allocs_.find(id);
    BUDDY_CHECK(it != allocs_.end(), "free of unknown engine allocation");
    const EngineAllocation &a = it->second;
    shards_[a.shard]->free(a.shardId);
    logicalUsed_ -= a.bytes;
    byVa_.erase(a.va);
    allocs_.erase(it);
}

const EngineAllocation &
ShardedEngine::allocationFor(Addr va) const
{
    auto it = byVa_.upper_bound(va);
    BUDDY_CHECK(it != byVa_.begin(), "address below all engine allocations");
    --it;
    const EngineAllocation &a = allocs_.at(it->second);
    BUDDY_CHECK(a.contains(va), "address not inside any engine allocation");
    return a;
}

void
ShardedEngine::attachMetrics(obs::MetricRegistry &registry)
{
    const bool mergedMode = cfg_.shard.windowMode == WindowMode::Merged;
    probes_.active = true;

    // Merged per-batch totals that are pure functions of the plans:
    // identical under any sharding, so they live under sim/.
    probes_.batches = &registry.counter("sim/engine/batches");
    probes_.reads = &registry.counter("sim/engine/reads");
    probes_.writes = &registry.counter("sim/engine/writes");
    probes_.probes = &registry.counter("sim/engine/probes");
    probes_.deviceSectors = &registry.counter("sim/engine/device_sectors");
    probes_.buddySectors = &registry.counter("sim/engine/buddy_sectors");
    probes_.buddyAccesses = &registry.counter("sim/engine/buddy_accesses");
    probes_.deviceCycles = &registry.counter("sim/engine/device_cycles");
    probes_.buddyCycles = &registry.counter("sim/engine/buddy_cycles");
    // Unloaded codec latency is a pure per-op function like the serial
    // cycles: sim/ under every mode.
    probes_.codecCycles = &registry.counter("sim/engine/codec_cycles");
    probes_.batchOps = &registry.histogram("sim/engine/batch_ops");

    // Metadata hit/miss is per-shard cache state: reproducible
    // run-to-run, different across shard counts by design.
    probes_.metadataHits = &registry.counter("shard/engine/metadata_hits");
    probes_.metadataMisses =
        &registry.counter("shard/engine/metadata_misses");

    // Window totals join sim/ only under Merged mode (the merged-stream
    // replay); under PerShard they are the N-GPU barrier makespans,
    // which depend on the sharding by design.
    const std::string wp = mergedMode ? "sim/engine/" : "shard/engine/";
    probes_.deviceWindowCycles =
        &registry.counter(wp + "device_window_cycles");
    probes_.buddyWindowCycles =
        &registry.counter(wp + "buddy_window_cycles");
    probes_.combinedWindowCycles =
        &registry.counter(wp + "combined_window_cycles");
    probes_.codecChargedWindowCycles =
        &registry.counter(wp + "codec_charged_window_cycles");
    probes_.batchMakespan =
        &registry.histogram(wp + "batch_combined_makespan");
    if (mergedMode) {
        probes_.windowOccupancy =
            &registry.histogram("sim/engine/window_occupancy");
        probes_.windowStall =
            &registry.histogram("sim/engine/window_stall");
    } else {
        // The shards' own controller metrics carry occupancy/stall in
        // per-shard mode (each shard is its own MSHR pool).
        probes_.windowOccupancy = nullptr;
        probes_.windowStall = nullptr;
    }

    // Queue depth depends on how fast workers drain — thread timing,
    // not simulated time — so it is wall/ by definition.
    probes_.wallQueueDepth =
        &registry.histogram("wall/engine/queue_depth");

    // Each shard controller's own view (codec outcomes, its cache's
    // hits and, under PerShard, its own windows): reproducible,
    // sharding-dependent. Under Merged the shards window nothing.
    for (unsigned s = 0; s < shardCount(); ++s)
        shards_[s]->attachProbes(registry, strfmt("shard/s%u/", s),
                                 !mergedMode);
}

std::future<BatchSummary>
ShardedEngine::submit(AccessBatch &batch)
{
    auto job = std::make_shared<BatchJob>();
    job->batch = &batch;
    job->seq = nextSeq_.fetch_add(1, std::memory_order_relaxed);
    batch.submitSeq_ = job->seq;

    const std::size_t n = batch.ops_.size();
    batch.results_.assign(n, AccessInfo{});
    batch.summary_ = BatchSummary{};
    job->opAlloc.resize(n);

    // Split the plan: one sub-plan per participating shard, ops kept in
    // submission order with shard-local addresses.
    std::vector<int> subOf(shardCount(), -1);
    for (std::size_t i = 0; i < n; ++i) {
        const AccessRequest &op = batch.ops_[i];
        const EngineAllocation &a = allocationFor(op.va);
        int &sub = subOf[a.shard];
        if (sub < 0) {
            sub = static_cast<int>(job->subs.size());
            job->subs.emplace_back();
            job->subs.back().shard = a.shard;
        }
        SubPlan &sp = job->subs[static_cast<std::size_t>(sub)];
        AccessRequest local = op;
        local.va = a.shardVa + (op.va - a.va);
        sp.plan.ops_.push_back(local);
        sp.origIdx.push_back(static_cast<u32>(i));
        job->opAlloc[i] = a.id;
    }

    auto fut = job->done.get_future();
    if (job->subs.empty()) {
        // Empty plan: nothing to enqueue.
        if (!hub_.empty()) {
            std::lock_guard<std::mutex> lk(accountMutex_);
            hub_.emitBatch(batch.summary_);
        }
        job->done.set_value(batch.summary_);
        return fut;
    }

    job->remaining.store(static_cast<unsigned>(job->subs.size()),
                         std::memory_order_relaxed);
    std::size_t peakDepth = 0;
    for (unsigned sub = 0; sub < job->subs.size(); ++sub) {
        const unsigned s = job->subs[sub].shard;
        Worker &w = *workers_[workerOf(s)];
        const auto slot = std::find(w.shards.begin(), w.shards.end(), s) -
                          w.shards.begin();
        {
            std::lock_guard<std::mutex> lk(w.m);
            auto &q = w.queues[static_cast<std::size_t>(slot)];
            q.emplace_back(job, sub);
            peakDepth = std::max(peakDepth, q.size());
        }
        w.cv.notify_one();
    }
    if (probes_.active) {
        // Post-enqueue depth depends on worker drain speed: wall/.
        std::lock_guard<std::mutex> lk(accountMutex_);
        probes_.wallQueueDepth->add(peakDepth);
    }
    return fut;
}

const BatchSummary &
ShardedEngine::execute(AccessBatch &batch)
{
    submit(batch).get();
    return batch.summary_;
}

void
ShardedEngine::workerMain(Worker &w)
{
    for (;;) {
        std::shared_ptr<BatchJob> job;
        unsigned sub = 0;
        {
            std::unique_lock<std::mutex> lk(w.m);
            w.cv.wait(lk, [&] {
                if (w.stop)
                    return true;
                for (const auto &q : w.queues)
                    if (!q.empty())
                        return true;
                return false;
            });
            // Round-robin over this worker's shard queues so one busy
            // shard cannot starve its siblings.
            for (std::size_t k = 0; k < w.queues.size() && !job; ++k) {
                auto &q = w.queues[(w.cursor + k) % w.queues.size()];
                if (!q.empty()) {
                    job = std::move(q.front().first);
                    sub = q.front().second;
                    q.pop_front();
                    w.cursor = (w.cursor + k + 1) % w.queues.size();
                }
            }
            if (!job) {
                if (w.stop)
                    return;
                continue;
            }
        }
        runTask(job, sub);
    }
}

void
ShardedEngine::runTask(const std::shared_ptr<BatchJob> &job, unsigned sub)
{
    SubPlan &sp = job->subs[sub];
    // Under Merged the batch is windowed once, merged, in finish().
    shards_[sp.shard]->run(sp.plan,
                           cfg_.shard.windowMode == WindowMode::PerShard);

    if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
        finish(*job);
}

void
ShardedEngine::finish(BatchJob &job)
{
    AccessBatch &batch = *job.batch;

    // Scatter per-op results back into submission order and fold the
    // per-shard summaries (u64 sums, so the merge is order-independent
    // and bit-identical to a single-controller run of the same plan).
    BatchSummary merged;
    for (const SubPlan &sp : job.subs) {
        merged.accumulate(sp.plan.summary_);
        for (std::size_t j = 0; j < sp.origIdx.size(); ++j)
            batch.results_[sp.origIdx[j]] = sp.plan.results_[j];
    }

    // Observability feeds of the merged timing pass: occupancy/stall
    // samples go to stack-local histograms, folded into the registry
    // under the accounting lock below (bucket sums commute), and the
    // windows' peak concurrency goes to the BatchRecord.
    obs::LatencyHistogram localOcc;
    obs::LatencyHistogram localStall;
    u64 maxDevOut = 0;
    u64 maxBudOut = 0;
    // Per-shard mode's imbalance inputs: Σ and min of shard makespans.
    u64 sum_makespan = 0;
    u64 min_makespan = ~0ull;

    const bool perShard = cfg_.shard.windowMode == WindowMode::PerShard;
    if (!perShard) {
        // The shards ran only the functional pass (cycle totals 0), so
        // this is the batch's one timing pass: the submission-order
        // traffic through one window group — the single-GPU equivalent
        // of the batch. Per-op traffic is a pure function of the plan,
        // so the charges are identical under any sharding and bit-
        // identical to a single controller executing the same plan
        // (every shard runs the same timing config).
        timing::WindowGroup group = shards_[0]->makeWindows();
        const bool sample = probes_.windowOccupancy != nullptr;
        windowBatch(batch.ops_, batch.results_, group, merged,
                    sample ? &localOcc : nullptr,
                    sample ? &localStall : nullptr);
        maxDevOut = group.device().maxOutstanding();
        maxBudOut = group.buddy().maxOutstanding();
    } else {
        // Per-shard window mode: each shard windowed its own sub-plan
        // over its own links (one MSHR pool per GPU), and the serial
        // and codec totals folded above stand. The batch completes at a
        // cross-shard barrier, so its windowed totals are the max over
        // the participating shards' makespans, not the sum folded
        // above: the N-GPU makespan. max() is order-independent, so
        // these totals reproduce run-to-run; at one shard they are
        // bit-identical to the merged pass (same stream, same timing),
        // which tests pin.
        sum_makespan = merged.combinedWindowCycles;
        merged.deviceWindowCycles = 0;
        merged.buddyWindowCycles = 0;
        merged.combinedWindowCycles = 0;
        merged.codecChargedWindowCycles = 0;
        for (const SubPlan &sp : job.subs) {
            const BatchSummary &s = sp.plan.summary_;
            merged.deviceWindowCycles =
                std::max(merged.deviceWindowCycles, s.deviceWindowCycles);
            merged.buddyWindowCycles =
                std::max(merged.buddyWindowCycles, s.buddyWindowCycles);
            merged.combinedWindowCycles = std::max(
                merged.combinedWindowCycles, s.combinedWindowCycles);
            merged.codecChargedWindowCycles =
                std::max(merged.codecChargedWindowCycles,
                         s.codecChargedWindowCycles);
            min_makespan = std::min(min_makespan, s.combinedWindowCycles);
        }
    }
    batch.summary_ = merged;

    // Publish the finished batch in one critical section: accounting,
    // BatchRecord, then sink events.
    {
        std::lock_guard<std::mutex> lk(accountMutex_);

        if (perShard) {
            // The spread between the shards' makespans is the per-batch
            // GPU load-imbalance signal (the barrier waits for the max).
            // All sums are integers, so accumulation is completion-
            // order-independent and the stats reproduce run-to-run.
            const u64 max_makespan = merged.combinedWindowCycles;
            ++imbalance_.batches;
            imbalance_.sumMin += min_makespan;
            imbalance_.sumMax += max_makespan;
            imbalance_.sumAll += sum_makespan;
            imbalance_.sumShards += job.subs.size();
            imbalance_.minMin = std::min(imbalance_.minMin, min_makespan);
            imbalance_.maxMax = std::max(imbalance_.maxMax, max_makespan);
            if (sum_makespan > 0) {
                // Integer ratio bucket: max/mean in tenths, computed as
                // max * 10 * shards / Σ so no floats enter the
                // accumulator.
                const u64 tenths =
                    max_makespan * 10 * job.subs.size() / sum_makespan;
                const u64 bucket = std::min<u64>(
                    tenths - 10, WindowImbalanceStats::kRatioBuckets - 1);
                ++imbalance_.ratioHist[bucket];
            }
        }

        // Per-tenant accounting: fold the batch's merged summary into
        // the submitting tenant's totals (untagged batches land under
        // tenant 0). A tenant's totals thus sum exactly its own batches
        // — the bookkeeping behind the service layer's isolation
        // contract.
        TenantTotals &t = tenantTotals_[batch.tenant()];
        t.summary.accumulate(merged);
        ++t.batches;

        // Metric folds: every accumulation is a counter add or a
        // histogram bucket sum — commutative, so the registry state is
        // independent of which batch finished first.
        if (probes_.active) {
            probes_.batches->add();
            probes_.reads->add(merged.reads);
            probes_.writes->add(merged.writes);
            probes_.probes->add(merged.probes);
            probes_.deviceSectors->add(merged.deviceSectors);
            probes_.buddySectors->add(merged.buddySectors);
            probes_.buddyAccesses->add(merged.buddyAccesses);
            probes_.deviceCycles->add(merged.deviceCycles);
            probes_.buddyCycles->add(merged.buddyCycles);
            probes_.metadataHits->add(merged.metadataHits);
            probes_.metadataMisses->add(merged.metadataMisses);
            probes_.deviceWindowCycles->add(merged.deviceWindowCycles);
            probes_.buddyWindowCycles->add(merged.buddyWindowCycles);
            probes_.combinedWindowCycles->add(
                merged.combinedWindowCycles);
            probes_.codecCycles->add(merged.codecCycles);
            probes_.codecChargedWindowCycles->add(
                merged.codecChargedWindowCycles);
            probes_.batchMakespan->add(merged.combinedWindowCycles);
            probes_.batchOps->add(batch.ops_.size());
            if (probes_.windowOccupancy != nullptr) {
                probes_.windowOccupancy->merge(localOcc);
                probes_.windowStall->merge(localStall);
            }
        }

        // Timeline hook: one record per batch, serialized by this lock
        // (completion order; seq recovers submission order).
        if (observer_ != nullptr) {
            obs::BatchRecord rec;
            rec.seq = job.seq;
            rec.tenant = batch.tenant();
            rec.summary = merged;
            rec.maxDeviceOutstanding = maxDevOut;
            rec.maxBuddyOutstanding = maxBudOut;
            rec.shards.reserve(job.subs.size());
            for (const SubPlan &sp : job.subs) {
                obs::BatchRecord::ShardSpan span;
                span.shard = sp.shard;
                span.ops = sp.plan.ops_.size();
                // Under Merged every span carries the batch's one
                // (merged) makespan.
                span.combinedCycles =
                    perShard ? sp.plan.summary_.combinedWindowCycles
                             : merged.combinedWindowCycles;
                rec.shards.push_back(span);
            }
            std::sort(rec.shards.begin(), rec.shards.end(),
                      [](const obs::BatchRecord::ShardSpan &a,
                         const obs::BatchRecord::ShardSpan &b) {
                          return a.shard < b.shard;
                      });
            observer_->onBatchComplete(rec);
        }

        // Sink events, built from the finished batch in submission
        // order: exactly the stream a single controller emits for the
        // plan, with engine-global addresses and allocation ids and the
        // submitting tenant's tag.
        if (!hub_.empty()) {
            for (std::size_t i = 0; i < batch.ops_.size(); ++i)
                hub_.emit(api::makeEvent(batch.ops_[i], batch.results_[i],
                                         job.opAlloc[i], batch.tenant()));
            hub_.emitBatch(merged);
        }
    }

    job.done.set_value(merged);
}

BuddyStats
ShardedEngine::stats() const
{
    BuddyStats total;
    for (const auto &s : shards_) {
        const BuddyStats &st = s->stats();
        total.reads += st.reads;
        total.writes += st.writes;
        total.deviceSectorTraffic += st.deviceSectorTraffic;
        total.buddySectorTraffic += st.buddySectorTraffic;
        total.buddyAccesses += st.buddyAccesses;
        total.overflowEntries += st.overflowEntries;
    }
    // Cycle totals are the engine's own per-batch ones (the merged
    // timing pass, or per-shard maxima under WindowMode::PerShard), not
    // the shards' (see stats() docs). Every batch folds into exactly one
    // tenant's totals, so their sum is the engine's.
    std::lock_guard<std::mutex> lk(accountMutex_);
    for (const auto &entry : tenantTotals_) {
        const BatchSummary &t = entry.second.summary;
        total.deviceCycles += t.deviceCycles;
        total.buddyCycles += t.buddyCycles;
        total.codecCycles += t.codecCycles;
        total.deviceWindowCycles += t.deviceWindowCycles;
        total.buddyWindowCycles += t.buddyWindowCycles;
        total.combinedWindowCycles += t.combinedWindowCycles;
        total.codecChargedWindowCycles += t.codecChargedWindowCycles;
    }
    return total;
}

void
ShardedEngine::clearStats()
{
    // Symmetric with stats(): every field merged there must reset here
    // (tests/test_engine.cc pins reset -> resubmit equality).
    for (auto &s : shards_)
        s->clearStats();
    std::lock_guard<std::mutex> lk(accountMutex_);
    tenantTotals_.clear();
    imbalance_ = WindowImbalanceStats{};
}

std::map<u32, TenantTotals>
ShardedEngine::tenantTotals() const
{
    std::lock_guard<std::mutex> lk(accountMutex_);
    return tenantTotals_;
}

WindowImbalanceStats
ShardedEngine::windowImbalance() const
{
    std::lock_guard<std::mutex> lk(accountMutex_);
    return imbalance_;
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
