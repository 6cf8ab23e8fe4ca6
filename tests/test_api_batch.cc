/**
 * @file
 * Tests of the buddy::api facade: batched-vs-single-op equivalence
 * (one N-op execute() must yield exactly the AccessInfo and stats of N
 * one-op batches), the BatchSummary accounting and the stats fold,
 * the engine's TrafficSink batch stream, the codec registry, and the
 * pluggable backing stores.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "api/backing_store.h"
#include "api/codec_registry.h"
#include "core/controller.h"
#include "engine/engine.h"
#include "engine/trace.h"
#include "workloads/patterns.h"

namespace buddy {
namespace {

#if defined(__LP64__)
// AccessInfo is a traffic record: isZero, codecPass and storedBits sit
// in the padding after metadataHit, and codecCycles is its one cycle
// field. Pin the per-op result at 24 bytes: host set-up time has been
// seen to move 16-22 % when a hot type changed size (the glibc
// heap-layout finding in ROADMAP.md, "Recent").
static_assert(sizeof(AccessInfo) == 24, "AccessInfo changed size");
#endif

BuddyConfig
smallConfig()
{
    BuddyConfig cfg;
    cfg.deviceBytes = 8 * MiB;
    return cfg;
}

/** A deterministic mixed working set covering every need bucket. */
std::vector<std::vector<u8>>
mixedEntries(std::size_t count, u64 seed)
{
    Rng rng(seed);
    std::vector<std::vector<u8>> entries(count);
    for (std::size_t i = 0; i < count; ++i) {
        entries[i].assign(kEntryBytes, 0);
        fillBucketEntry(rng, static_cast<unsigned>(i % kPatternBuckets),
                        entries[i].data());
    }
    return entries;
}

bool
sameInfo(const AccessInfo &a, const AccessInfo &b)
{
    return a.deviceSectors == b.deviceSectors &&
           a.buddySectors == b.buddySectors &&
           a.metadataHit == b.metadataHit && a.isZero == b.isZero &&
           a.codecPass == b.codecPass && a.storedBits == b.storedBits &&
           a.codecCycles == b.codecCycles;
}

/** Two controllers' stats() traffic and serial cycles, and overflow
 *  gauges (windowed makespans depend on the batch split). */
bool
sameStats(const BuddyController &x, const BuddyController &y)
{
    const BatchSummary &a = x.stats();
    const BatchSummary &b = y.stats();
    return a.reads == b.reads && a.writes == b.writes &&
           a.probes == b.probes && a.deviceSectors == b.deviceSectors &&
           a.buddySectors == b.buddySectors &&
           a.buddyAccesses == b.buddyAccesses &&
           x.overflowEntries() == y.overflowEntries() &&
           a.deviceCycles == b.deviceCycles &&
           a.buddyCycles == b.buddyCycles;
}

TEST(AccessBatch, BatchedWritesReadsProbesMatchOneOpBatches)
{
    // Two identical controllers: one driven through one N-op batch, one
    // through N one-op batches. Every AccessInfo and the final stats
    // must be identical.
    BuddyController batched(smallConfig());
    BuddyController single(smallConfig());

    const auto idB =
        batched.allocate("a", 256 * KiB, CompressionTarget::Ratio2);
    const auto idS =
        single.allocate("a", 256 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(idB && idS);
    const Addr vaB = *idB;
    const Addr vaS = *idS;

    const std::size_t n = 512;
    const auto entries = mixedEntries(n, 42);

    // --- Writes.
    AccessBatch wbatch;
    for (std::size_t i = 0; i < n; ++i)
        wbatch.write(vaB + i * kEntryBytes, entries[i].data());
    batched.execute(wbatch);

    AccessBatch one(1);
    for (std::size_t i = 0; i < n; ++i) {
        one.clear();
        one.write(vaS + i * kEntryBytes, entries[i].data());
        single.execute(one);
        ASSERT_TRUE(sameInfo(wbatch.result(i), one.result(0)))
            << "write " << i;
    }
    EXPECT_TRUE(sameStats(batched, single));

    // --- Reads (interleaved with probes to stress ordering).
    std::vector<std::vector<u8>> outB(n), outS(n);
    AccessBatch rbatch;
    for (std::size_t i = 0; i < n; ++i) {
        outB[i].assign(kEntryBytes, 0xEE);
        outS[i].assign(kEntryBytes, 0x11);
        if (i % 3 == 0)
            rbatch.probe(vaB + i * kEntryBytes);
        else
            rbatch.read(vaB + i * kEntryBytes, outB[i].data());
    }
    batched.execute(rbatch);

    for (std::size_t i = 0; i < n; ++i) {
        one.clear();
        if (i % 3 == 0)
            one.probe(vaS + i * kEntryBytes);
        else
            one.read(vaS + i * kEntryBytes, outS[i].data());
        single.execute(one);
        ASSERT_TRUE(sameInfo(rbatch.result(i), one.result(0)))
            << "read " << i;
        if (i % 3 != 0) {
            ASSERT_EQ(std::memcmp(outB[i].data(), entries[i].data(),
                                  kEntryBytes),
                      0);
            ASSERT_EQ(std::memcmp(outS[i].data(), entries[i].data(),
                                  kEntryBytes),
                      0);
        }
    }
    EXPECT_TRUE(sameStats(batched, single));
}

TEST(AccessBatch, RefilledOpsKeepNothingOfTheClearedOnes)
{
    // A plan whose ops set src, dst and the unchanged mark (a trace
    // cursor marks a write that repeats its entry's bytes) is cleared
    // and refilled through the builders, each kind over a slot another
    // kind held. Each builder value-initialises its op in place, so no
    // pointer or mark of the slot's earlier op survives.
    EngineConfig cfg;
    cfg.shard = smallConfig();
    ShardedEngine eng(cfg);
    TraceRecorderSink recorder;
    eng.attachSink(&recorder);
    const auto va = eng.allocate("a", kPageBytes, CompressionTarget::Ratio2);
    ASSERT_TRUE(va);
    recorder.noteAllocation("a", *va, kPageBytes, CompressionTarget::Ratio2);
    u8 data[kEntryBytes];
    std::memset(data, 0x5a, kEntryBytes);
    u8 out[kEntryBytes];
    AccessBatch recorded;
    recorded.write(*va, data);
    recorded.write(*va, data); // a repeat: loaded as an unchanged write
    recorded.read(*va, out);
    recorded.read(*va, out);
    eng.execute(recorded);
    eng.detachSink(&recorder);

    TraceReplayer replayer;
    replayer.loadImage(recorder.serialize());
    ShardedEngine target(cfg);
    TraceCursor cursor(replayer, target);
    AccessBatch plan;
    std::vector<u8> readBuf;
    ASSERT_TRUE(cursor.next(plan, readBuf));
    ASSERT_EQ(plan.size(), 4u);
    ASSERT_NE(plan.ops()[0].src, nullptr);
    ASSERT_TRUE(plan.ops()[1].unchanged);
    ASSERT_NE(plan.ops()[2].dst, nullptr);
    ASSERT_NE(plan.ops()[3].dst, nullptr);

    plan.clear();
    plan.read(*va, out);    // over a write
    plan.write(*va, data);  // over the marked write
    plan.write(*va, data);  // over a read
    plan.probe(*va);        // over a read
    const std::vector<AccessRequest> &ops = plan.ops();
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[0].kind, AccessKind::Read);
    EXPECT_EQ(ops[0].src, nullptr);
    EXPECT_EQ(ops[0].dst, out);
    for (const std::size_t i : {1u, 2u}) {
        EXPECT_EQ(ops[i].kind, AccessKind::Write) << "op " << i;
        EXPECT_EQ(ops[i].src, data) << "op " << i;
        EXPECT_EQ(ops[i].dst, nullptr) << "op " << i;
        EXPECT_FALSE(ops[i].unchanged) << "op " << i;
    }
    EXPECT_EQ(ops[3].kind, AccessKind::Probe);
    EXPECT_EQ(ops[3].src, nullptr);
    EXPECT_EQ(ops[3].dst, nullptr);
    for (const AccessRequest &op : ops)
        EXPECT_EQ(op.va, *va);
}

TEST(AccessBatch, SummaryMatchesStatsDelta)
{
    BuddyController gpu(smallConfig());
    const auto id = gpu.allocate("a", 128 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr va = *id;

    const auto entries = mixedEntries(200, 9);
    AccessBatch batch;
    for (std::size_t i = 0; i < entries.size(); ++i)
        batch.write(va + i * kEntryBytes, entries[i].data());

    const BatchSummary before = gpu.stats();
    const BatchSummary &s = gpu.execute(batch);

    EXPECT_EQ(s.writes, entries.size());
    EXPECT_EQ(s.reads, 0u);
    EXPECT_EQ(s.probes, 0u);
    EXPECT_EQ(s.operations(), entries.size());
    EXPECT_EQ(s.deviceSectors,
              gpu.stats().deviceSectors - before.deviceSectors);
    EXPECT_EQ(s.buddySectors,
              gpu.stats().buddySectors - before.buddySectors);
    EXPECT_EQ(s.buddyAccesses,
              gpu.stats().buddyAccesses - before.buddyAccesses);
    EXPECT_EQ(s.deviceCycles,
              gpu.stats().deviceCycles - before.deviceCycles);
    EXPECT_EQ(s.buddyCycles,
              gpu.stats().buddyCycles - before.buddyCycles);
    EXPECT_EQ(s.totalCycles(), s.deviceCycles + s.buddyCycles);
    EXPECT_EQ(s.metadataHits + s.metadataMisses, entries.size());

    // Re-execution of a cleared batch reuses its capacity.
    batch.clear();
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(batch.summary().operations(), 0u);
}

/** Counting sink used by the batch-stream tests. */
struct CountingSink : api::TrafficSink
{
    u64 ops = 0;
    u64 writes = 0;
    u64 deviceSectors = 0;
    u64 buddySectors = 0;
    u64 batches = 0;
    BatchSummary last;
    BatchSummary folded; ///< accumulate() of every batch's summary

    void
    onBatch(const AccessBatch &batch) override
    {
        ++batches;
        ops += batch.size();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (batch.ops()[i].kind == AccessKind::Write)
                ++writes;
            deviceSectors += batch.result(i).deviceSectors;
            buddySectors += batch.result(i).buddySectors;
        }
        last = batch.summary();
        folded.accumulate(batch.summary());
    }
};

EngineConfig
smallEngine()
{
    EngineConfig cfg;
    cfg.shards = 2;
    cfg.shard = smallConfig();
    return cfg;
}

TEST(TrafficSink, SinkSeesTheSameTrafficAsStats)
{
    ShardedEngine eng(smallEngine());
    CountingSink sink;
    eng.attachSink(&sink);

    const auto id = eng.allocate("a", 128 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr va = *id;

    const auto entries = mixedEntries(128, 3);
    AccessBatch batch;
    for (std::size_t i = 0; i < entries.size(); ++i)
        batch.write(va + i * kEntryBytes, entries[i].data());
    eng.execute(batch);

    EXPECT_EQ(sink.ops, entries.size());
    EXPECT_EQ(sink.writes, entries.size());
    EXPECT_EQ(sink.deviceSectors, eng.stats().deviceSectors);
    EXPECT_EQ(sink.buddySectors, eng.stats().buddySectors);
    EXPECT_EQ(sink.batches, 1u);
    EXPECT_EQ(sink.last.writes, entries.size());

    // A second, mixed batch: the sink's fold of the summaries is the
    // engine's stats(), window charges included.
    std::vector<u8> out(kEntryBytes);
    batch.clear();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i % 2 == 0)
            batch.read(va + i * kEntryBytes, out.data());
        else
            batch.probe(va + i * kEntryBytes);
    }
    eng.execute(batch);
    EXPECT_EQ(sink.batches, 2u);
    EXPECT_EQ(sink.ops, 2 * entries.size());
    EXPECT_GT(sink.folded.combinedWindowCycles, 0u);
    EXPECT_TRUE(sink.folded == eng.stats());

    // Detached sinks see nothing further.
    eng.detachSink(&sink);
    AccessBatch read;
    read.read(va, out.data());
    eng.execute(read);
    EXPECT_EQ(sink.batches, 2u);
}

TEST(BatchSummary, StatsIsTheFoldOfTheBatchSummaries)
{
    // Mixed write/read/probe batches, timed through execute() and
    // untimed through run(): stats() equals the accumulate() fold of
    // every returned summary.
    BuddyController gpu(smallConfig());
    const auto id = gpu.allocate("a", 128 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr va = *id;

    const auto entries = mixedEntries(96, 17);
    std::vector<u8> out(kEntryBytes);
    BatchSummary fold;
    AccessBatch batch;
    for (unsigned round = 0; round < 6; ++round) {
        batch.clear();
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const Addr a = va + i * kEntryBytes;
            const std::size_t k = i + round;
            if (k % 3 == 0)
                batch.write(a, entries[k % entries.size()].data());
            else if (k % 3 == 1)
                batch.read(a, out.data());
            else
                batch.probe(a);
        }
        fold.accumulate(round % 2 == 0 ? gpu.execute(batch)
                                       : gpu.run(batch, false));
    }
    EXPECT_GT(fold.reads, 0u);
    EXPECT_GT(fold.probes, 0u);
    EXPECT_GT(fold.combinedWindowCycles, 0u);
    EXPECT_TRUE(gpu.stats() == fold);
}

TEST(TrafficSink, ReattachingTheSameSinkIsANoOp)
{
    // An engine holds one sink: attaching it again neither doubles its
    // batches nor fails.
    ShardedEngine eng(smallEngine());
    CountingSink sink;
    eng.attachSink(&sink);
    eng.attachSink(&sink);
    const auto id = eng.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr va = *id;
    u8 out[kEntryBytes];
    AccessBatch batch;
    batch.read(va, out);
    batch.probe(va);
    eng.execute(batch);
    EXPECT_EQ(sink.ops, 2u);
    EXPECT_EQ(sink.batches, 1u);

    // Detaching a sink that is not attached leaves the attached one.
    CountingSink other;
    eng.detachSink(&other);
    eng.execute(batch);
    EXPECT_EQ(sink.ops, 4u);

    // Once the sink is detached, another may attach.
    eng.detachSink(&sink);
    eng.attachSink(&other);
    eng.execute(batch);
    EXPECT_EQ(sink.ops, 4u);
    EXPECT_EQ(other.ops, 2u);
}

TEST(CodecRegistry, ListsBuiltinsAndCreatesThem)
{
    const auto &reg = api::CodecRegistry::instance();
    EXPECT_EQ(reg.names(),
              (std::vector<std::string>{"bpc", "bdi", "fpc", "zero"}));
    for (const auto &name : reg.names()) {
        const CodecInfo *info = reg.find(name);
        ASSERT_NE(info, nullptr) << name;
        EXPECT_EQ(&reg.at(name), info);
        EXPECT_STREQ(reg.create(name)->name(), name.c_str());
    }
    EXPECT_EQ(reg.find("lzma"), nullptr);
}

TEST(CodecRegistry, TimingRowsArePinned)
{
    // Each codec's inline-unit timing as README.md documents it, both
    // in its table row and as an unconfigured controller resolves it.
    struct Row
    {
        const char *name;
        Cycles cyclesPerEntry;
        u64 pipelineDepth;
    };
    const Row rows[] = {
        {"bpc", 2, 4}, {"bdi", 1, 2}, {"fpc", 1, 3}, {"zero", 0, 1}};
    for (const Row &row : rows) {
        SCOPED_TRACE(row.name);
        const CodecInfo *info = api::CodecRegistry::instance().find(row.name);
        ASSERT_NE(info, nullptr);
        EXPECT_EQ(info->timing.cyclesPerEntry, row.cyclesPerEntry);
        EXPECT_EQ(info->timing.pipelineDepth, row.pipelineDepth);

        BuddyConfig cfg = smallConfig();
        cfg.codec = row.name;
        ASSERT_FALSE(cfg.codecTiming.has_value());
        const BuddyController gpu(cfg);
        EXPECT_EQ(gpu.codecTiming().cyclesPerEntry, row.cyclesPerEntry);
        EXPECT_EQ(gpu.codecTiming().pipelineDepth, row.pipelineDepth);
    }
}

TEST(CodecRegistryDeath, UnknownCodecFailsFastWithRegisteredList)
{
    EXPECT_DEATH(
        { api::CodecRegistry::instance().create("lzma"); },
        "bpc");
}

TEST(CodecRegistryDeath, ControllerValidatesConfiguredCodec)
{
    BuddyConfig cfg = smallConfig();
    cfg.codec = "no-such-codec";
    EXPECT_DEATH({ BuddyController gpu(cfg); }, "unknown codec");
}

TEST(BackingStore, KindsRoundTripData)
{
    for (const auto &kind : api::backingStoreKinds()) {
        const auto store = makeBackingStore(kind, 64 * KiB);
        EXPECT_STREQ(store->kind(), kind.c_str());
        EXPECT_EQ(store->capacity(), 64 * KiB);

        u8 src[kEntryBytes], dst[kEntryBytes];
        for (std::size_t i = 0; i < kEntryBytes; ++i)
            src[i] = static_cast<u8>(i * 7 + 1);
        store->write(1024, src, kEntryBytes);
        store->read(1024, dst, kEntryBytes);
        EXPECT_EQ(std::memcmp(src, dst, kEntryBytes), 0) << kind;
    }
}

TEST(BackingStoreDeath, UnknownKindFailsFast)
{
    EXPECT_DEATH({ makeBackingStore("nvme-of", 1 * MiB); },
                 "unknown backing store");
}

TEST(BackingStore, DefaultTimingRowsArePinned)
{
    // Each kind's default link timing as README.md documents it.
    struct Row
    {
        const char *kind;
        Cycles latency;
        u64 bytesPerCycle; ///< both directions
    };
    const Row rows[] = {{"dram", 4, 512},
                        {"host-um", 600, 32},
                        {"remote", 1200, 16},
                        {"peer", 400, 64}};
    EXPECT_EQ(api::backingStoreKinds(),
              (std::vector<std::string>{"dram", "host-um", "remote", "peer"}));
    for (const Row &row : rows) {
        SCOPED_TRACE(row.kind);
        const auto store = makeBackingStore(row.kind, KiB);
        EXPECT_EQ(store->timing().latency, row.latency);
        EXPECT_EQ(store->timing().readBytesPerCycle, row.bytesPerCycle);
        EXPECT_EQ(store->timing().writeBytesPerCycle, row.bytesPerCycle);
    }
}

TEST(BackingStore, ControllerHonoursConfiguredBackends)
{
    BuddyConfig cfg = smallConfig();
    cfg.deviceBackend = "dram";
    cfg.buddyBackend = "remote";
    BuddyController gpu(cfg);
    EXPECT_STREQ(gpu.deviceStore().kind(), "dram");
    EXPECT_STREQ(gpu.carveOut().store().kind(), "remote");

    // The functional path still round-trips through a remote carve-out:
    // the random entry keeps one sector on the device and spills three
    // into its buddy slot, on the write and on the read.
    const auto id = gpu.allocate("a", 64 * KiB, CompressionTarget::Ratio4);
    ASSERT_TRUE(id);
    const Addr va = *id;
    u8 entry[kEntryBytes], out[kEntryBytes];
    Rng rng(2);
    for (std::size_t i = 0; i < kEntryBytes; ++i)
        entry[i] = static_cast<u8>(rng.below(256));
    AccessBatch batch;
    batch.write(va, entry);
    batch.read(va, out);
    const BatchSummary &s = gpu.execute(batch);
    EXPECT_EQ(std::memcmp(entry, out, kEntryBytes), 0);
    EXPECT_EQ(s.buddyAccesses, 2u);
    EXPECT_EQ(s.deviceSectors, 2u);
    EXPECT_EQ(s.buddySectors, 6u);
}

TEST(BackingStoreDeath, ControllerValidatesConfiguredBackend)
{
    BuddyConfig cfg = smallConfig();
    cfg.buddyBackend = "bogus";
    EXPECT_DEATH({ BuddyController gpu(cfg); }, "backing");
}

} // namespace
} // namespace buddy
