#include "captures.h"

#include <algorithm>
#include <memory>

#include "api/codec_registry.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/profiler.h"
#include "engine/trace.h"
#include "perf_util.h"
#include "workloads/analysis.h"
#include "workloads/benchmark.h"
#include "workloads/image.h"
#include "workloads/patterns.h"

namespace perfbench {

using namespace buddy;

namespace {

/**
 * Records a batched access stream through a ShardedEngine. Write
 * payloads are staged in a batch-owned buffer, so callers fill entries
 * in place and never keep their own copies alive.
 */
class CaptureWriter
{
  public:
    CaptureWriter(const EngineConfig &cfg, std::size_t batchEntries,
                  const BetweenBatches &between)
        : eng_(cfg), between_(between), batchEntries_(batchEntries),
          payload_(batchEntries * kEntryBytes),
          readBuf_(batchEntries * kEntryBytes), plan_(batchEntries)
    {
        eng_.attachSink(&rec_);
    }

    /** Allocate and declare one allocation; returns its base VA. */
    Addr
    allocate(const std::string &name, u64 bytes, CompressionTarget target)
    {
        const auto id = eng_.allocate(name, bytes, target);
        BUDDY_CHECK(id.has_value(), "capture engine out of memory");
        const EngineAllocation &a = eng_.allocations().at(*id);
        rec_.noteAllocation(a.name, a.va, a.bytes, a.target);
        footprint_ += a.bytes;
        return a.va;
    }

    /** Plan a write of the entry at @p va; fill the returned slot. */
    u8 *
    write(Addr va)
    {
        u8 *slot = payload_.data() + plan_.size() * kEntryBytes;
        plan_.write(va, slot);
        if (plan_.size() == batchEntries_)
            pendingFull_ = true;
        return slot;
    }

    /** Plan a read of the entry at @p va. */
    void
    read(Addr va)
    {
        plan_.read(va, readBuf_.data() + plan_.size() * kEntryBytes);
        if (plan_.size() == batchEntries_)
            flush();
    }

    /** Close the current batch (after the last write slot is filled). */
    void
    flush()
    {
        if (plan_.empty())
            return;
        eng_.execute(plan_);
        plan_.clear();
        pendingFull_ = false;
        if (between_ && ++flushes_ % kBetweenEvery == 0)
            between_();
    }

    /** True once the batch is full and its last slot may be filled. */
    bool full() const { return pendingFull_; }

    Capture
    finish()
    {
        flush();
        Capture c;
        c.image = rec_.serialize();
        c.ops = rec_.opCount();
        c.batches = rec_.totals().batches;
        c.footprintBytes = footprint_;
        return c;
    }

  private:
    static constexpr u64 kBetweenEvery = 16;

    ShardedEngine eng_;
    TraceRecorderSink rec_;
    const BetweenBatches &between_;
    u64 flushes_ = 0;
    std::size_t batchEntries_;
    std::vector<u8> payload_;
    std::vector<u8> readBuf_;
    AccessBatch plan_;
    bool pendingFull_ = false;
    u64 footprint_ = 0;
};

/** One benchmark instantiated for capture: model plus its base VAs. */
struct PlacedModel
{
    std::unique_ptr<BenchmarkSpec> spec; ///< seeded copy the model points at
    std::unique_ptr<WorkloadModel> model;
    std::vector<Addr> bases; ///< per model allocation
};

/**
 * Instantiate @p names at @p bytesPerBench each (spec seeds derived
 * from @p seed), pick per-allocation targets with a profiling pass and
 * allocate them on @p w.
 */
std::vector<PlacedModel>
placeModels(const std::vector<std::string> &names, u64 seed,
            u64 bytesPerBench, CaptureWriter &w)
{
    const auto codec = CodecRegistry::instance().create("bpc");
    AnalysisConfig acfg;
    acfg.maxSamplesPerAllocation = 512;
    const Profiler profiler;
    std::vector<PlacedModel> placed;
    for (const std::string &name : names) {
        PlacedModel p;
        p.spec = std::make_unique<BenchmarkSpec>(findBenchmark(name));
        p.spec->seed = engine::splitmix64(p.spec->seed ^ seed);
        p.model = std::make_unique<WorkloadModel>(*p.spec, bytesPerBench);
        const auto decision =
            profiler.decide(mergedProfiles(*p.model, *codec, acfg));
        const auto &allocs = p.model->allocations();
        for (std::size_t a = 0; a < allocs.size(); ++a)
            p.bases.push_back(
                w.allocate(name + "/" + allocs[a].spec->name,
                           std::max<u64>(1, allocs[a].entries) * kEntryBytes,
                           decision.targets[a]));
        placed.push_back(std::move(p));
    }
    return placed;
}

/** Write snapshot @p s of every placed model, batch by batch. */
void
writeSnapshot(const std::vector<PlacedModel> &placed, unsigned s,
              CaptureWriter &w)
{
    for (const PlacedModel &p : placed) {
        const auto &allocs = p.model->allocations();
        for (std::size_t a = 0; a < allocs.size(); ++a)
            for (u64 e = 0; e < allocs[a].entries; ++e) {
                p.model->entryData(a, e, s,
                                   w.write(p.bases[a] + e * kEntryBytes));
                if (w.full())
                    w.flush();
            }
    }
    w.flush();
}

/** Read every entry of every placed model once, batch by batch. */
void
readSweep(const std::vector<PlacedModel> &placed, CaptureWriter &w)
{
    for (const PlacedModel &p : placed) {
        const auto &allocs = p.model->allocations();
        for (std::size_t a = 0; a < allocs.size(); ++a)
            for (u64 e = 0; e < allocs[a].entries; ++e)
                w.read(p.bases[a] + e * kEntryBytes);
    }
    w.flush();
}

} // namespace

EngineConfig
engineConfig(u64 footprintBytes)
{
    EngineConfig cfg;
    cfg.shards = 4;
    cfg.threads = 1;
    cfg.shard.codec = "bpc";
    cfg.shard.linkWindow = 32;
    cfg.shard.windowMode = WindowMode::Merged;
    cfg.shard.deviceBytes = footprintBytes / 4 + 8 * MiB;
    return cfg;
}

Capture
buildHpcCapture(u64 seed, u64 bytesPerBench, unsigned sweeps,
                std::size_t batchEntries, const BetweenBatches &between)
{
    const auto names = hpcBenchmarkNames();
    CaptureWriter w(engineConfig(names.size() * bytesPerBench),
                    batchEntries, between);
    const auto placed = placeModels(names, seed, bytesPerBench, w);
    writeSnapshot(placed, WorkloadModel::kSnapshots / 2, w);
    for (unsigned r = 0; r < sweeps; ++r)
        readSweep(placed, w);
    return w.finish();
}

Capture
buildDlCapture(u64 seed, u64 bytesPerBench, std::size_t batchEntries,
               const BetweenBatches &between)
{
    const auto names = dlBenchmarkNames();
    CaptureWriter w(engineConfig(names.size() * bytesPerBench),
                    batchEntries, between);
    const auto placed = placeModels(names, seed, bytesPerBench, w);
    for (unsigned s = 0; s < WorkloadModel::kSnapshots; ++s) {
        writeSnapshot(placed, s, w);
        readSweep(placed, w);
    }
    return w.finish();
}

Capture
buildServiceCapture(u64 seed, std::size_t entries, unsigned passes,
                    std::size_t batchEntries, const BetweenBatches &between)
{
    CaptureWriter w(engineConfig(2 * entries * kEntryBytes), batchEntries,
                    between);
    const Addr a = w.allocate("pool", entries * kEntryBytes,
                              CompressionTarget::Ratio2);
    const Addr b = w.allocate("field", entries * kEntryBytes,
                              CompressionTarget::Ratio1_33);
    Rng rng(engine::splitmix64(seed ^ 0x5e41ull));
    for (unsigned pass = 0; pass < passes; ++pass) {
        for (const Addr base : {a, b}) {
            for (std::size_t e = 0; e < entries; ++e) {
                fillBucketEntry(
                    rng, static_cast<unsigned>((e + pass) % kPatternBuckets),
                    w.write(base + e * kEntryBytes));
                if (w.full())
                    w.flush();
            }
            w.flush();
        }
        for (const Addr base : {a, b}) {
            for (std::size_t e = 0; e < entries; ++e)
                w.read(base + e * kEntryBytes);
            w.flush();
        }
    }
    return w.finish();
}

} // namespace perfbench
