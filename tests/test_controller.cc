/**
 * @file
 * Integration tests for the BuddyController: allocation accounting,
 * functional read/write round trips through compressed device + buddy
 * storage, traffic accounting, and the no-data-movement property that
 * defines the design.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "engine/engine.h"
#include "engine/trace.h"
#include "obs/hooks.h"

namespace buddy {
namespace {

BuddyConfig
smallConfig()
{
    BuddyConfig cfg;
    cfg.deviceBytes = 8 * MiB;
    cfg.carveOutRatio = 3;
    return cfg;
}

void
fillCompressible(Rng &rng, u8 *entry)
{
    // Smooth small-integer data: compresses well below 2x target.
    u32 v = static_cast<u32>(rng.below(1000));
    for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
        v += static_cast<u32>(rng.below(16));
        std::memcpy(entry + w * 4, &v, 4);
    }
}

void
fillRandom(Rng &rng, u8 *entry)
{
    for (std::size_t i = 0; i < kEntryBytes; ++i)
        entry[i] = static_cast<u8>(rng.below(256));
}

// One-op batches: execute a single access and return its AccessInfo.

AccessInfo
writeOne(BuddyController &c, Addr va, const u8 *data)
{
    AccessBatch batch(1);
    batch.write(va, data);
    c.execute(batch);
    return batch.result(0);
}

AccessInfo
readOne(BuddyController &c, Addr va, u8 *out)
{
    AccessBatch batch(1);
    batch.read(va, out);
    c.execute(batch);
    return batch.result(0);
}

AccessInfo
probeOne(BuddyController &c, Addr va)
{
    AccessBatch batch(1);
    batch.probe(va);
    c.execute(batch);
    return batch.result(0);
}

/** The bit length the controller stores for @p data: 0 for a zero
 *  entry, the codec's encoded size, or a raw entry's when it does not
 *  fit. */
u32
expectedStoredBits(const Compressor &codec, const u8 *data, bool *raw)
{
    *raw = false;
    if (entryIsZero(data))
        return 0;
    CompressionScratch scratch;
    const std::size_t bits = codec.compressInto(data, scratch.encode, scratch);
    *raw = bits > kEntryBytes * 8;
    return *raw ? kEntryBytes * 8 : static_cast<u32>(bits);
}

/** Figure 4 split of a @p bits payload over a @p slot_bytes device slot:
 *  {device sectors, buddy sectors}. */
std::pair<unsigned, unsigned>
expectedSplit(u32 bits, u64 slot_bytes)
{
    const u64 stored = (bits + 7) / 8;
    const u64 on_dev = std::min<u64>(stored, slot_bytes);
    return {static_cast<unsigned>((on_dev + kSectorBytes - 1) / kSectorBytes),
            static_cast<unsigned>((stored - on_dev + kSectorBytes - 1) /
                                  kSectorBytes)};
}

TEST(Controller, AllocateReservesDeviceByTargetRatio)
{
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 1 * MiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    // 2x target: half the logical size on device, half in buddy.
    EXPECT_EQ(c.deviceBytesReserved(), 512 * KiB);
    EXPECT_EQ(c.buddyBytesReserved(), 512 * KiB);
    EXPECT_DOUBLE_EQ(c.compressionRatio(), 2.0);
}

TEST(Controller, MostlyZeroTargetReservesSixteenth)
{
    BuddyController c(smallConfig());
    ASSERT_TRUE(c.allocate("z", 1 * MiB, CompressionTarget::MostlyZero));
    EXPECT_EQ(c.deviceBytesReserved(), 64 * KiB);
    EXPECT_DOUBLE_EQ(c.compressionRatio(), 16.0);
}

TEST(Controller, AllocationRoundsUpToPages)
{
    BuddyController c(smallConfig());
    ASSERT_TRUE(c.allocate("p", 1, CompressionTarget::None));
    const auto &a = c.allocations().begin()->second;
    EXPECT_EQ(a.bytes, kPageBytes);
}

TEST(Controller, AllocationFailsWhenDeviceExhausted)
{
    BuddyController c(smallConfig());
    // 4 MiB at 1x target uses 4 MiB device; a second 8 MiB must fail.
    ASSERT_TRUE(c.allocate("a", 4 * MiB, CompressionTarget::None));
    EXPECT_FALSE(c.allocate("b", 8 * MiB, CompressionTarget::None));
    // But 8 MiB at 4x (2 MiB device) still fits.
    EXPECT_TRUE(c.allocate("c", 8 * MiB, CompressionTarget::Ratio4));
}

TEST(Controller, FreeReturnsCapacity)
{
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 4 * MiB, CompressionTarget::None);
    ASSERT_TRUE(id);
    c.free(*id);
    EXPECT_EQ(c.deviceBytesReserved(), 0u);
    EXPECT_EQ(c.buddyBytesReserved(), 0u);
    EXPECT_TRUE(c.allocate("b", 8 * MiB, CompressionTarget::None));
}

TEST(Controller, ZeroEntryRoundTripsWithNoDataTraffic)
{
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr va = *id;

    u8 zeros[kEntryBytes] = {};
    const auto w = writeOne(c, va, zeros);
    EXPECT_EQ(w.deviceSectors, 0u);
    EXPECT_EQ(w.buddySectors, 0u);

    u8 out[kEntryBytes];
    std::memset(out, 0xFF, sizeof(out));
    const auto r = readOne(c, va, out);
    EXPECT_EQ(r.deviceSectors, 0u);
    for (const u8 b : out)
        EXPECT_EQ(b, 0);
}

TEST(Controller, NeverWrittenEntryReadsAsZero)
{
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Allocation &a = c.allocations().at(*id);

    for (const Addr va : {a.va, a.va + a.bytes - kEntryBytes}) {
        u8 out[kEntryBytes];
        std::memset(out, 0xFF, sizeof(out));
        for (const AccessInfo &info : {readOne(c, va, out), probeOne(c, va)}) {
            EXPECT_TRUE(info.isZero);
            EXPECT_EQ(info.deviceSectors, 0u);
            EXPECT_EQ(info.buddySectors, 0u);
            EXPECT_EQ(info.storedBits, 0u);
            EXPECT_FALSE(info.codecPass);
        }
        for (const u8 b : out)
            EXPECT_EQ(b, 0);
    }
    EXPECT_EQ(c.overflowEntries(), 0u);
}

TEST(Controller, RewritesCycleThroughEveryEncoding)
{
    // One entry rewritten Zero -> compressed -> Raw -> Zero: each write,
    // and the read after it, carries the new record's exact size and
    // split, and the overflow gauge follows the entry.
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr va = *id;

    Rng rng(8);
    u8 zero[kEntryBytes] = {};
    u8 smooth[kEntryBytes];
    u8 noise[kEntryBytes];
    fillCompressible(rng, smooth);
    fillRandom(rng, noise);

    struct Step
    {
        const u8 *data;
        u32 bits;
        bool raw;
        unsigned device, buddy;
        u64 overflow;
    };
    bool raw = false;
    const u32 smooth_bits = expectedStoredBits(c.codec(), smooth, &raw);
    ASSERT_FALSE(raw);
    ASSERT_GT(smooth_bits, 0u);
    ASSERT_LE(smooth_bits, 64u * 8); // fits the 2x device slot
    const unsigned smooth_sectors = expectedSplit(smooth_bits, 64).first;
    expectedStoredBits(c.codec(), noise, &raw);
    ASSERT_TRUE(raw);

    const Step steps[] = {
        {zero, 0, false, 0, 0, 0},
        {smooth, smooth_bits, false, smooth_sectors, 0, 0},
        {noise, kEntryBytes * 8, true, 2, 2, 1},
        {zero, 0, false, 0, 0, 0},
    };
    for (const Step &st : steps) {
        const bool is_zero = st.bits == 0;
        const AccessInfo w = writeOne(c, va, st.data);
        u8 out[kEntryBytes];
        const AccessInfo r = readOne(c, va, out);
        EXPECT_EQ(std::memcmp(out, st.data, kEntryBytes), 0);
        for (const AccessInfo &info : {w, r}) {
            EXPECT_EQ(info.isZero, is_zero);
            EXPECT_EQ(info.storedBits, st.bits);
            EXPECT_EQ(info.deviceSectors, st.device);
            EXPECT_EQ(info.buddySectors, st.buddy);
        }
        EXPECT_EQ(w.codecPass, !is_zero);
        EXPECT_EQ(r.codecPass, !is_zero && !st.raw);
        EXPECT_EQ(c.overflowEntries(), st.overflow);
    }
}

/** The reference model: each written entry's payload and the stored
 *  size the codec's encoding implies, by address. */
struct EntryModel
{
    std::vector<u8> data = std::vector<u8>(kEntryBytes, 0);
    u32 bits = 0;
    bool raw = false;
};
using ReferenceModel = std::map<Addr, EntryModel>;

/** The codec a controller or an engine's shards compress with. */
const Compressor &
codecOf(const BuddyController &c)
{
    return c.codec();
}

const Compressor &
codecOf(const ShardedEngine &eng)
{
    return eng.shard(0).codec();
}

/** The overflow gauge @p model implies for @p c's allocations. */
template <typename Target>
u64
expectedOverflow(const Target &c, const ReferenceModel &model)
{
    u64 n = 0;
    for (const auto &[va, m] : model)
        if (expectedSplit(m.bits,
                          deviceBytesPerEntry(
                              allocationHolding(c.allocations(), va).target))
                .second > 0)
            ++n;
    return n;
}

/**
 * Apply an op of @p kind at @p va, which @p c (a controller or an
 * engine) ran with result @p info, to @p model and check the result
 * against it: a write's payload or a read's destination is @p bytes.
 * The split, isZero, storedBits and codecPass follow from the model
 * alone.
 */
template <typename Target>
void
expectOpMatchesModel(const Target &c, ReferenceModel &model,
                     AccessKind kind, Addr va, const u8 *bytes,
                     const AccessInfo &info, u64 op)
{
    if (kind == AccessKind::Write) {
        EntryModel m;
        m.data.assign(bytes, bytes + kEntryBytes);
        m.bits = expectedStoredBits(codecOf(c), bytes, &m.raw);
        model[va] = m;
    }
    const auto it = model.find(va);
    const EntryModel m = it == model.end() ? EntryModel{} : it->second;
    if (kind == AccessKind::Read) {
        EXPECT_EQ(std::memcmp(bytes, m.data.data(), kEntryBytes), 0)
            << "op " << op;
    }
    // Writes of non-zero entries compress; reads and probes of
    // compressed (not Raw) entries decompress.
    EXPECT_EQ(info.codecPass,
              m.bits != 0 && (kind == AccessKind::Write || !m.raw))
        << "op " << op;
    const u64 slot = deviceBytesPerEntry(
        allocationHolding(c.allocations(), va).target);
    const auto [device, buddy] = expectedSplit(m.bits, slot);
    EXPECT_EQ(info.isZero, m.bits == 0) << "op " << op;
    EXPECT_EQ(info.storedBits, m.bits) << "op " << op;
    EXPECT_EQ(info.deviceSectors, device) << "op " << op;
    EXPECT_EQ(info.buddySectors, buddy) << "op " << op;
}

const CompressionTarget kLifecycleTargets[] = {
    CompressionTarget::MostlyZero, CompressionTarget::None,
    CompressionTarget::Ratio2, CompressionTarget::Ratio4};

/** Fill @p payload as a random write: zero, compressible, random, or
 *  mostly zero (one small word). */
void
fillLifecyclePayload(Rng &rng, u8 *payload)
{
    std::memset(payload, 0, kEntryBytes);
    switch (rng.below(4)) {
      case 0: break; // zero
      case 1: fillCompressible(rng, payload); break;
      case 2: fillRandom(rng, payload); break;
      default:
        payload[rng.below(kEntryBytes)] = static_cast<u8>(1 + rng.below(255));
        break;
    }
}

/**
 * A one-set LRU cache of metadata lines, most recent first: a line is
 * 32 B of 4-bit entries, so it covers 64 entries of 128 B.
 */
struct OneSetLru
{
    std::size_t ways;
    std::list<u64> lines;

    /** Whether the line covering @p va is resident; then it is the
     *  most recent line, evicting the least recent one on a miss. */
    bool
    lookup(Addr va)
    {
        const u64 line = va / 128 / 64;
        const auto it = std::find(lines.begin(), lines.end(), line);
        const bool hit = it != lines.end();
        if (hit)
            lines.erase(it);
        else if (lines.size() == ways)
            lines.pop_back();
        lines.push_front(line);
        return hit;
    }
};

/**
 * Random writes, rewrites, reads, probes, frees and re-allocations over
 * allocations of different targets, run on @p t (a controller or an
 * engine) in batches of 1 to @p maxBatchOps ops; a free ends the batch
 * before it. The op stream does not depend on the batching. Every op's
 * result and, after each batch and each free, the overflow gauge must
 * match a reference model that keeps each entry's payload and derives
 * the Figure 4 split from the codec's encoded size. With @p metadataWays
 * set, @p t's metadata cache is one set of that many ways, and every
 * op's metadataHit must also match a OneSetLru of them.
 */
template <typename Target>
void
checkRecordLifecycle(Target &t, u64 maxBatchOps, std::size_t metadataWays = 0)
{
    ReferenceModel model;   // written entries of live allocations
    std::vector<Addr> live; // base addresses
    OneSetLru metadata{metadataWays, {}};
    u64 metadataHits = 0;

    Rng rng(23);
    Rng sizes(31); // batch sizes, apart from the op stream
    const auto allocateOne = [&](CompressionTarget target) {
        const auto id = t.allocate("r", 2 * kPageBytes, target);
        ASSERT_TRUE(id);
        live.push_back(*id);
    };
    for (int i = 0; i < 3; ++i)
        allocateOne(kLifecycleTargets[i]);

    // Each op of a batch writes from, or reads into, its own slot.
    std::vector<u8> slots(maxBatchOps * kEntryBytes);
    AccessBatch batch;
    u64 batchOps = 0;
    u64 op = 0;
    const auto runBatch = [&] {
        if (batch.size() == 0)
            return;
        t.execute(batch);
        const u64 first = op - batch.size();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const AccessRequest &r = batch.ops()[i];
            expectOpMatchesModel(
                t, model, r.kind, r.va,
                r.kind == AccessKind::Write ? r.src : r.dst,
                batch.result(i), first + i);
            if (metadataWays != 0) {
                const bool hit = metadata.lookup(r.va);
                metadataHits += hit;
                EXPECT_EQ(batch.result(i).metadataHit, hit)
                    << "op " << first + i;
            }
        }
        ASSERT_EQ(t.overflowEntries(), expectedOverflow(t, model))
            << "op " << op;
        batch.clear();
    };

    while (op < 6000) {
        if (rng.below(500) == 0) {
            // Free one allocation and place a new one.
            runBatch();
            const std::size_t k = rng.below(live.size());
            const auto &a = t.allocations().at(live[k]);
            model.erase(model.lower_bound(a.va),
                        model.lower_bound(a.va + a.bytes));
            t.free(live[k]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
            allocateOne(kLifecycleTargets[rng.below(4)]);
            ASSERT_EQ(t.overflowEntries(), expectedOverflow(t, model))
                << "op " << op;
            ++op;
            continue;
        }

        if (batch.size() == 0)
            batchOps = 1 + sizes.below(maxBatchOps);
        const auto &a = t.allocations().at(live[rng.below(live.size())]);
        const Addr va =
            a.va + rng.below(a.bytes / kEntryBytes) * kEntryBytes;
        u8 *slot = &slots[batch.size() * kEntryBytes];
        const u64 kind = rng.below(3);
        if (kind == 0) {
            fillLifecyclePayload(rng, slot);
            batch.write(va, slot);
        } else if (kind == 1) {
            batch.read(va, slot);
        } else {
            batch.probe(va);
        }
        ++op;
        if (batch.size() == batchOps)
            runBatch();
        if (::testing::Test::HasFatalFailure())
            return;
    }
    runBatch();
    // Both outcomes occur, so the LRU check is not vacuous.
    if (metadataWays != 0) {
        EXPECT_GT(metadataHits, 0u);
        EXPECT_LT(metadataHits, op);
    }
}

/**
 * The second write path: record random batches on an engine, most of
 * whose rewrites repeat the entry's bytes, then replay the capture
 * through a cursor on a controller running @p codec. The cursor marks
 * those rewrites unchanged, and the controller keeps their stored
 * encoding; every op's result and the overflow gauge after each batch
 * must still match the reference model.
 */
void
checkReplayedLifecycle(const char *codec)
{
    EngineConfig rcfg;
    rcfg.shards = 2;
    rcfg.shard = smallConfig();
    ShardedEngine rec(rcfg);
    TraceRecorderSink recorder;
    rec.attachSink(&recorder);
    std::vector<Addr> vas;
    for (const CompressionTarget t : kLifecycleTargets) {
        const auto id = rec.allocate("r", kPageBytes, t);
        ASSERT_TRUE(id);
        recorder.noteAllocation("r", *id, kPageBytes, t);
        for (u64 e = 0; e < kPageBytes / kEntryBytes; ++e)
            vas.push_back(*id + e * kEntryBytes);
    }

    Rng rng(29);
    std::map<Addr, std::vector<u8>> held; // bytes each entry holds
    std::vector<std::vector<u8>> payloads;
    u8 out[kEntryBytes];
    for (int b = 0; b < 100; ++b) {
        AccessBatch batch;
        payloads.clear();
        payloads.reserve(64);
        const u64 ops = 1 + rng.below(64);
        for (u64 i = 0; i < ops; ++i) {
            const Addr va = vas[rng.below(vas.size())];
            const u64 kind = rng.below(3);
            if (kind == 0) {
                std::vector<u8> &bytes = held[va];
                if (bytes.empty() || rng.below(3) == 0) {
                    bytes.assign(kEntryBytes, 0);
                    fillLifecyclePayload(rng, bytes.data());
                }
                payloads.push_back(bytes);
                batch.write(va, payloads.back().data());
            } else if (kind == 1) {
                batch.read(va, out);
            } else {
                batch.probe(va);
            }
        }
        rec.execute(batch);
    }
    rec.detachSink(&recorder);
    TraceReplayer replayer;
    replayer.loadImage(recorder.serialize());

    BuddyConfig cfg = smallConfig();
    cfg.codec = codec;
    BuddyController c(cfg);
    ReferenceModel model;
    TraceCursor cursor(replayer, c);
    AccessBatch plan;
    std::vector<u8> read_buf;
    u64 op = 0, marked = 0;
    while (cursor.next(plan, read_buf)) {
        c.execute(plan);
        for (std::size_t i = 0; i < plan.size(); ++i, ++op) {
            const AccessRequest &r = plan.ops()[i];
            marked += r.unchanged;
            expectOpMatchesModel(
                c, model, r.kind, r.va,
                r.kind == AccessKind::Write ? r.src : r.dst,
                plan.result(i), op);
        }
        ASSERT_EQ(c.overflowEntries(), expectedOverflow(c, model))
            << "op " << op;
    }
    EXPECT_EQ(op, replayer.opCount());
    EXPECT_GT(marked, op / 10);
}

TEST(Controller, RecordLifecycleMatchesAReferenceModel)
{
    for (const char *codec : {"bpc", "bdi", "fpc", "zero"}) {
        SCOPED_TRACE(codec);
        BuddyConfig cfg = smallConfig();
        cfg.codec = codec;
        BuddyController c(cfg);
        checkRecordLifecycle(c, 1);
        if (HasFatalFailure())
            return;
        checkReplayedLifecycle(codec);
        if (HasFatalFailure())
            return;

        // A one-set metadata cache: no hash places a line, so each op's
        // metadataHit follows a plain LRU of the set's ways.
        MetadataCacheConfig &meta = cfg.metadataCache;
        meta.slices = 1;
        meta.totalBytes = meta.lineBytes * meta.ways;
        BuddyController oneSet(cfg);
        checkRecordLifecycle(oneSet, 1, meta.ways);
        if (HasFatalFailure())
            return;
    }
}

TEST(ShardedEngine, RecordLifecycleMatchesAReferenceModel)
{
    // The controller leg's op stream, in batches of 1 to 64 ops, through
    // an engine that runs each op in place on its shard: a mistranslated
    // address or a result written to the wrong slot of the batch breaks
    // the model, which shares only the codec's encoded size with src/.
    struct MultiShardBatches : obs::BatchObserver
    {
        u64 count = 0;
        void
        onBatchComplete(const obs::BatchRecord &r) override
        {
            count += r.shards.size() > 1;
        }
    };
    for (const char *codec : {"bpc", "bdi", "fpc", "zero"})
        for (const unsigned shards : {1u, 4u})
            for (const WindowMode mode :
                 {WindowMode::Merged, WindowMode::PerShard}) {
                SCOPED_TRACE(::testing::Message()
                             << codec << " " << shards << " shards "
                             << (mode == WindowMode::Merged ? "Merged"
                                                            : "PerShard"));
                EngineConfig cfg;
                cfg.shards = shards;
                cfg.shard = smallConfig();
                cfg.shard.codec = codec;
                cfg.shard.windowMode = mode;
                ShardedEngine eng(cfg);
                MultiShardBatches multi;
                eng.setBatchObserver(&multi);
                checkRecordLifecycle(eng, 64);
                if (HasFatalFailure())
                    return;
                // The batches span allocations on different shards.
                if (shards > 1) {
                    EXPECT_GT(multi.count, 0u);
                }
            }
}

TEST(Controller, CompressibleEntryStaysOnDevice)
{
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr va = *id;

    Rng rng(1);
    u8 entry[kEntryBytes];
    fillCompressible(rng, entry);
    const auto w = writeOne(c, va, entry);
    EXPECT_FALSE(w.usedBuddy());
    EXPECT_LE(w.deviceSectors, 2u);

    u8 out[kEntryBytes];
    const auto r = readOne(c, va, out);
    EXPECT_FALSE(r.usedBuddy());
    EXPECT_EQ(std::memcmp(entry, out, kEntryBytes), 0);
}

TEST(Controller, IncompressibleEntrySpillsToBuddy)
{
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr va = *id;

    Rng rng(2);
    u8 entry[kEntryBytes];
    fillRandom(rng, entry);
    const auto w = writeOne(c, va, entry);
    EXPECT_TRUE(w.usedBuddy());
    EXPECT_EQ(w.deviceSectors, 2u);  // the two device-resident sectors
    EXPECT_EQ(w.buddySectors, 2u);   // the overflow

    u8 out[kEntryBytes];
    const auto r = readOne(c, va, out);
    EXPECT_TRUE(r.usedBuddy());
    EXPECT_EQ(std::memcmp(entry, out, kEntryBytes), 0);
    EXPECT_EQ(c.overflowEntries(), 1u);
}

TEST(Controller, OverflowGaugeFollowsRewritesAndFree)
{
    // overflowEntries() counts entries, not traffic: a shrinking
    // rewrite and a free() each take their entries off it.
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr va = *id;

    Rng rng(4);
    u8 entry[kEntryBytes];
    fillRandom(rng, entry);
    writeOne(c, va, entry);
    writeOne(c, va + kEntryBytes, entry);
    ASSERT_EQ(c.overflowEntries(), 2u);

    fillCompressible(rng, entry);
    writeOne(c, va, entry);
    EXPECT_EQ(c.overflowEntries(), 1u);
    c.free(*id);
    EXPECT_EQ(c.overflowEntries(), 0u);
}

TEST(Controller, CompressibilityChangeMovesNoOtherData)
{
    // The defining property (Section 3.3): an entry growing incompressible
    // only changes its own slots. Neighbouring entries keep their exact
    // device/buddy placement.
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr base = *id;

    Rng rng(3);
    u8 neighbor[kEntryBytes];
    fillCompressible(rng, neighbor);
    writeOne(c, base, neighbor);
    writeOne(c, base + 2 * kEntryBytes, neighbor);

    u8 entry[kEntryBytes];
    fillCompressible(rng, entry);
    writeOne(c, base + kEntryBytes, entry);
    EXPECT_EQ(c.overflowEntries(), 0u);

    // Overwrite the middle entry with incompressible data.
    fillRandom(rng, entry);
    const auto w = writeOne(c, base + kEntryBytes, entry);
    EXPECT_TRUE(w.usedBuddy());
    EXPECT_EQ(c.overflowEntries(), 1u);

    // Neighbours still read back exactly, from device only.
    u8 out[kEntryBytes];
    auto r = readOne(c, base, out);
    EXPECT_FALSE(r.usedBuddy());
    EXPECT_EQ(std::memcmp(neighbor, out, kEntryBytes), 0);
    r = readOne(c, base + 2 * kEntryBytes, out);
    EXPECT_FALSE(r.usedBuddy());
    EXPECT_EQ(std::memcmp(neighbor, out, kEntryBytes), 0);

    // And shrinking back releases the overflow accounting.
    fillCompressible(rng, entry);
    writeOne(c, base + kEntryBytes, entry);
    EXPECT_EQ(c.overflowEntries(), 0u);
}

TEST(Controller, RawFallbackRoundTripsThroughBothMemories)
{
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio4);
    ASSERT_TRUE(id);
    const Addr va = *id;

    Rng rng(4);
    u8 entry[kEntryBytes];
    fillRandom(rng, entry); // BPC falls back to tagged raw
    const auto w = writeOne(c, va, entry);
    EXPECT_EQ(w.deviceSectors, 1u);
    EXPECT_EQ(w.buddySectors, 3u);

    u8 out[kEntryBytes];
    readOne(c, va, out);
    EXPECT_EQ(std::memcmp(entry, out, kEntryBytes), 0);
}

TEST(Controller, BulkRandomizedRoundTrip)
{
    BuddyConfig cfg = smallConfig();
    BuddyController c(cfg);
    const auto id = c.allocate("bulk", 512 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Allocation &a = c.allocations().at(*id);

    Rng rng(5);
    std::vector<std::vector<u8>> shadow(a.entryCount());
    // Write a random mix of compressible / incompressible / zero entries,
    // then overwrite a subset, then verify everything.
    for (u64 e = 0; e < a.entryCount(); ++e) {
        std::vector<u8> buf(kEntryBytes, 0);
        const double roll = rng.uniform();
        if (roll < 0.2) {
            // leave zero
        } else if (roll < 0.7) {
            fillCompressible(rng, buf.data());
        } else {
            fillRandom(rng, buf.data());
        }
        writeOne(c, a.va + e * kEntryBytes, buf.data());
        shadow[e] = std::move(buf);
    }
    for (int k = 0; k < 1000; ++k) {
        const u64 e = rng.below(a.entryCount());
        std::vector<u8> buf(kEntryBytes, 0);
        if (rng.chance(0.5))
            fillCompressible(rng, buf.data());
        else
            fillRandom(rng, buf.data());
        writeOne(c, a.va + e * kEntryBytes, buf.data());
        shadow[e] = std::move(buf);
    }
    // Verify everything through one batched read plan (equivalent to
    // entryCount() one-op read batches — see test_api_batch).
    std::vector<std::vector<u8>> out(a.entryCount(),
                                     std::vector<u8>(kEntryBytes, 0xCD));
    AccessBatch batch(a.entryCount());
    for (u64 e = 0; e < a.entryCount(); ++e)
        batch.read(a.va + e * kEntryBytes, out[e].data());
    const BatchSummary &s = c.execute(batch);
    EXPECT_EQ(s.reads, a.entryCount());
    for (u64 e = 0; e < a.entryCount(); ++e) {
        ASSERT_EQ(std::memcmp(shadow[e].data(), out[e].data(),
                              kEntryBytes),
                  0)
            << "entry " << e;
    }
}

TEST(Controller, ProbeMatchesReadTraffic)
{
    // A probe charges exactly the traffic a read of the same entry
    // moves (timed links, so the window charges are nonzero too).
    BuddyConfig cfg = smallConfig();
    cfg.buddyBackend = "remote";
    cfg.linkWindow = 4;
    BuddyController c(cfg);
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr va = *id;

    Rng rng(6);
    u8 entry[kEntryBytes];
    for (int i = 0; i < 20; ++i) {
        const Addr addr = va + rng.below(256) * kEntryBytes;
        if (rng.chance(0.5))
            fillCompressible(rng, entry);
        else
            fillRandom(rng, entry);
        // One-op batches: each summary carries that op's charges.
        AccessBatch write(1), read(1), probe(1);
        write.write(addr, entry);
        EXPECT_GT(c.execute(write).combinedWindowCycles, 0u)
            << "write " << i;

        u8 out[kEntryBytes];
        read.read(addr, out);
        probe.probe(addr);
        const BatchSummary r = c.execute(read);
        const BatchSummary p = c.execute(probe);
        EXPECT_EQ(std::memcmp(out, entry, kEntryBytes), 0) << "read " << i;
        EXPECT_EQ(r.deviceSectors, p.deviceSectors);
        EXPECT_EQ(r.buddySectors, p.buddySectors);
        EXPECT_EQ(r.deviceCycles, p.deviceCycles);
        EXPECT_EQ(r.buddyCycles, p.buddyCycles);
    }
}

TEST(Controller, StatsTrackBuddyAccessFraction)
{
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr va = *id;

    Rng rng(7);
    u8 entry[kEntryBytes];
    // 100 compressible, 100 incompressible writes.
    for (int i = 0; i < 100; ++i) {
        fillCompressible(rng, entry);
        writeOne(c, va + static_cast<u64>(i) * kEntryBytes, entry);
    }
    for (int i = 100; i < 200; ++i) {
        fillRandom(rng, entry);
        writeOne(c, va + static_cast<u64>(i) * kEntryBytes, entry);
    }
    EXPECT_NEAR(c.stats().buddyAccessFraction(), 0.5, 0.05);
}

TEST(Controller, LocateAfterFreeOfLastTouchedAllocation)
{
    // locate() remembers the allocation it found last. Freeing that
    // allocation must forget it: ops on B and on a newly allocated C
    // must then see what a controller that never touched A sees. The
    // reference allocates and frees A too, untouched, so both place B
    // and C at the same addresses; both flush the metadata cache and
    // clear stats() at the free. Under ASan a remembered pointer into
    // the freed allocation is a use-after-free.
    const u64 bytes = 4 * kPageBytes;
    const std::size_t n = 16;
    Rng rng(31);
    std::vector<u8> data(n * kEntryBytes);
    for (std::size_t e = 0; e < n; ++e) {
        if (e % 2 == 0)
            fillCompressible(rng, data.data() + e * kEntryBytes);
        else
            fillRandom(rng, data.data() + e * kEntryBytes);
    }

    auto run = [&](bool touch_a, std::vector<AccessInfo> &results,
                   std::vector<u8> &out) {
        BuddyController c(smallConfig());
        const auto b = c.allocate("b", bytes, CompressionTarget::Ratio2);
        const auto a = c.allocate("a", bytes, CompressionTarget::Ratio2);
        EXPECT_TRUE(a && b);
        const Addr b_va = *b;
        const Addr a_va = *a;
        if (touch_a) {
            AccessBatch touch;
            for (std::size_t e = 0; e < n; ++e) {
                touch.write(b_va + e * kEntryBytes,
                            data.data() + e * kEntryBytes);
                touch.write(a_va + e * kEntryBytes,
                            data.data() + e * kEntryBytes);
            }
            c.execute(touch);
            // A is the allocation touched last.
            EXPECT_FALSE(readOne(c, a_va, out.data()).isZero);
        }
        c.free(*a);
        c.metadataCache().flush();

        const auto cid = c.allocate("c", bytes, CompressionTarget::Ratio2);
        EXPECT_TRUE(cid.has_value());
        const Addr c_va = *cid;
        AccessBatch batch;
        for (std::size_t e = 0; e < n; ++e) {
            batch.write(c_va + e * kEntryBytes,
                        data.data() + (n - 1 - e) * kEntryBytes);
            batch.write(b_va + e * kEntryBytes,
                        data.data() + e * kEntryBytes);
        }
        for (std::size_t e = 0; e < n; ++e) {
            batch.read(b_va + e * kEntryBytes, &out[e * kEntryBytes]);
            batch.read(c_va + e * kEntryBytes,
                       &out[(n + e) * kEntryBytes]);
            batch.probe(c_va + e * kEntryBytes);
        }
        const BatchSummary sum = c.execute(batch);
        results = batch.results();
        return sum;
    };

    std::vector<AccessInfo> got, want;
    std::vector<u8> got_out(2 * n * kEntryBytes);
    std::vector<u8> want_out(2 * n * kEntryBytes);
    const BatchSummary got_stats = run(true, got, got_out);
    const BatchSummary want_stats = run(false, want, want_out);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].deviceSectors, want[i].deviceSectors) << "op " << i;
        EXPECT_EQ(got[i].buddySectors, want[i].buddySectors) << "op " << i;
        EXPECT_EQ(got[i].metadataHit, want[i].metadataHit) << "op " << i;
        EXPECT_EQ(got[i].isZero, want[i].isZero) << "op " << i;
        EXPECT_EQ(got[i].codecPass, want[i].codecPass) << "op " << i;
        EXPECT_EQ(got[i].storedBits, want[i].storedBits) << "op " << i;
        EXPECT_EQ(got[i].codecCycles, want[i].codecCycles) << "op " << i;
    }
    EXPECT_EQ(got_out, want_out);
    for (std::size_t e = 0; e < n; ++e) {
        EXPECT_EQ(std::memcmp(&got_out[e * kEntryBytes],
                              &data[e * kEntryBytes], kEntryBytes),
                  0)
            << "b entry " << e;
        EXPECT_EQ(std::memcmp(&got_out[(n + e) * kEntryBytes],
                              &data[(n - 1 - e) * kEntryBytes], kEntryBytes),
                  0)
            << "c entry " << e;
    }
    EXPECT_EQ(got_stats.reads, want_stats.reads);
    EXPECT_EQ(got_stats.writes, want_stats.writes);
    EXPECT_EQ(got_stats.probes, want_stats.probes);
    EXPECT_EQ(got_stats.deviceSectors, want_stats.deviceSectors);
    EXPECT_EQ(got_stats.buddySectors, want_stats.buddySectors);
    EXPECT_EQ(got_stats.metadataHits, want_stats.metadataHits);
    EXPECT_EQ(got_stats.metadataMisses, want_stats.metadataMisses);
    EXPECT_EQ(got_stats.buddyAccesses, want_stats.buddyAccesses);
    EXPECT_EQ(got_stats.deviceCycles, want_stats.deviceCycles);
    EXPECT_EQ(got_stats.buddyCycles, want_stats.buddyCycles);
    EXPECT_EQ(got_stats.deviceWindowCycles, want_stats.deviceWindowCycles);
    EXPECT_EQ(got_stats.buddyWindowCycles, want_stats.buddyWindowCycles);
    EXPECT_EQ(got_stats.combinedWindowCycles,
              want_stats.combinedWindowCycles);
    EXPECT_EQ(got_stats.codecCycles, want_stats.codecCycles);
    EXPECT_EQ(got_stats.codecChargedWindowCycles,
              want_stats.codecChargedWindowCycles);
}

TEST(ControllerDeath, MisalignedAccessPanics)
{
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    u8 out[kEntryBytes];
    EXPECT_DEATH(readOne(c, *id + 1, out), "aligned");
}

TEST(ControllerDeath, UnmappedAccessPanics)
{
    BuddyController c(smallConfig());
    u8 out[kEntryBytes];
    EXPECT_DEATH(readOne(c, 0x10000000ull, out), "allocation");
}

TEST(ControllerDeath, FreeOfAnythingButALiveBasePanics)
{
    // free() takes an allocation's base address: an address inside an
    // allocation, one in the gap a freed allocation left, and a base
    // freed twice all die.
    BuddyController c(smallConfig());
    const auto a = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    const auto b = c.allocate("b", 64 * KiB, CompressionTarget::Ratio2);
    const auto d = c.allocate("d", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(a && b && d);
    c.free(*b);
    EXPECT_DEATH(c.free(*a + kEntryBytes), "free of unknown");
    EXPECT_DEATH(c.free(*b + kEntryBytes), "free of unknown");
    EXPECT_DEATH(c.free(*b), "free of unknown");
}

TEST(Controller, AllocationsIterateInAllocationOrder)
{
    // Base addresses are never reused: after a, b, c, free(b), d, the
    // map walks a, c, d and d sits above c.
    BuddyController c(smallConfig());
    const auto a = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    const auto b = c.allocate("b", 64 * KiB, CompressionTarget::Ratio4);
    const auto cc = c.allocate("c", 64 * KiB, CompressionTarget::None);
    ASSERT_TRUE(a && b && cc);
    c.free(*b);
    const auto d = c.allocate("d", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(d);
    EXPECT_GT(*d, *cc);
    std::vector<std::string> names;
    for (const auto &[va, alloc] : c.allocations()) {
        EXPECT_EQ(va, alloc.va);
        names.push_back(alloc.name);
    }
    EXPECT_EQ(names, (std::vector<std::string>{"a", "c", "d"}));
}

} // namespace
} // namespace buddy
