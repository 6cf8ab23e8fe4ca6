/**
 * @file
 * Timing across the trace layer: record -> replay must preserve the
 * simulated cycle totals exactly (cycle charges are pure functions of
 * the traffic, so an identically-configured replay target reproduces
 * them bit-for-bit), repeat-mode replay must scale the totals exactly
 * linearly (every pass re-executes the same ops at the same addresses:
 * an op's address is a pure function of its allocation's base and its
 * entry offset), and a fuzz loop with randomized batch shapes, link
 * windows, and window modes must round-trip traces through the
 * replayer against timed engines, logging the seed on any failure.
 * The footer round-trips every total, codec totals included, and a
 * capture replays under either window mode and any W. Malformed
 * images, ops outside every recorded allocation, allocation tables too
 * large for the op table, version bytes other than the current one,
 * and paths that are not regular files die with a diagnostic; an
 * allocation far larger than its image loads without marks.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.h"
#include "engine/engine.h"
#include "engine/trace.h"
#include "workloads/patterns.h"

namespace buddy {
namespace {

EngineConfig
timedEngineConfig(unsigned shards, const std::string &buddy_backend)
{
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.shard.deviceBytes = 8 * MiB;
    cfg.shard.buddyBackend = buddy_backend;
    return cfg;
}

/** Record a mixed write+read+probe workload; return the trace image. */
std::vector<u8>
recordWorkload(ShardedEngine &eng, std::size_t entries, u64 seed,
               TraceTotals *totals_out = nullptr)
{
    TraceRecorderSink recorder;
    eng.attachSink(&recorder);

    constexpr std::size_t kAllocs = 4;
    std::vector<Addr> vas;
    for (std::size_t a = 0; a < kAllocs; ++a) {
        const auto id =
            eng.allocate("a" + std::to_string(a),
                         (entries / kAllocs) * kEntryBytes,
                         CompressionTarget::Ratio2);
        EXPECT_TRUE(id.has_value());
        const EngineAllocation &ea = eng.allocations().at(*id);
        recorder.noteAllocation(ea.name, ea.va, ea.bytes, ea.target);
        for (std::size_t i = 0; i < entries / kAllocs; ++i)
            vas.push_back(ea.va + i * kEntryBytes);
    }

    Rng rng(seed);
    std::vector<u8> data(vas.size() * kEntryBytes);
    for (std::size_t e = 0; e < vas.size(); ++e)
        fillBucketEntry(rng, static_cast<unsigned>(e % kPatternBuckets),
                        data.data() + e * kEntryBytes);
    std::vector<u8> out(vas.size() * kEntryBytes);

    AccessBatch w, r;
    for (std::size_t e = 0; e < vas.size(); ++e)
        w.write(vas[e], data.data() + e * kEntryBytes);
    eng.execute(w);
    for (std::size_t e = 0; e < vas.size(); ++e) {
        if (e % 5 == 0)
            r.probe(vas[e]);
        else
            r.read(vas[e], out.data() + e * kEntryBytes);
    }
    eng.execute(r);
    eng.detachSink(&recorder);

    if (totals_out != nullptr)
        *totals_out = recorder.totals();
    return recorder.serialize();
}

TEST(TraceTiming, ReplayPreservesCycleTotals)
{
    ShardedEngine rec(timedEngineConfig(4, "remote"));
    TraceTotals recorded;
    const auto image = recordWorkload(rec, 1024, 7, &recorded);
    EXPECT_GT(recorded.summary.deviceCycles, 0u);
    EXPECT_GT(recorded.summary.buddyCycles, 0u);

    TraceReplayer replayer;
    replayer.loadImage(image);
    EXPECT_TRUE(replayer.recordedTotals().summary == recorded.summary);

    // Identically-configured 4-shard engine: everything reproduces.
    ShardedEngine same(timedEngineConfig(4, "remote"));
    const TraceTotals replayed = replayer.replay(same);
    EXPECT_TRUE(replayed.summary == recorded.summary);

    // Cycle charges are pure functions of the traffic, so even a plain
    // single controller reproduces the cycle totals exactly.
    BuddyConfig single_cfg;
    single_cfg.deviceBytes = 8 * MiB;
    single_cfg.buddyBackend = "remote";
    BuddyController single(single_cfg);
    const TraceTotals direct = replayer.replay(single);
    EXPECT_EQ(direct.summary.deviceCycles, recorded.summary.deviceCycles);
    EXPECT_EQ(direct.summary.buddyCycles, recorded.summary.buddyCycles);
}

TEST(TraceTiming, RepeatScalesTotalsExactlyLinearly)
{
    // Windowed engines (W = 3): the windowed replay resets per batch,
    // so its totals must scale exactly linearly with repeat too.
    EngineConfig cfg = timedEngineConfig(2, "host-um");
    cfg.shard.linkWindow = 3;
    ShardedEngine rec(cfg);
    const auto image = recordWorkload(rec, 512, 11);

    TraceReplayer replayer;
    replayer.loadImage(image);

    constexpr unsigned kRepeat = 3;
    ShardedEngine once_t(cfg);
    ShardedEngine many_t(cfg);
    const TraceTotals once = replayer.replay(once_t);
    const TraceTotals many = replayer.replay(many_t, kRepeat);

    // Every shard-independent total scales exactly linearly: repeated
    // passes rewrite identical payloads, so traffic and cycle charges
    // repeat bit-for-bit. (Metadata hits are excluded: later passes run
    // against a warm cache.)
    EXPECT_EQ(many.batches, kRepeat * once.batches);
    EXPECT_EQ(many.summary.reads, kRepeat * once.summary.reads);
    EXPECT_EQ(many.summary.writes, kRepeat * once.summary.writes);
    EXPECT_EQ(many.summary.probes, kRepeat * once.summary.probes);
    EXPECT_EQ(many.summary.deviceSectors,
              kRepeat * once.summary.deviceSectors);
    EXPECT_EQ(many.summary.buddySectors,
              kRepeat * once.summary.buddySectors);
    EXPECT_EQ(many.summary.buddyAccesses,
              kRepeat * once.summary.buddyAccesses);
    EXPECT_EQ(many.summary.deviceCycles,
              kRepeat * once.summary.deviceCycles);
    EXPECT_EQ(many.summary.buddyCycles,
              kRepeat * once.summary.buddyCycles);
    EXPECT_EQ(many.summary.deviceWindowCycles,
              kRepeat * once.summary.deviceWindowCycles);
    EXPECT_EQ(many.summary.buddyWindowCycles,
              kRepeat * once.summary.buddyWindowCycles);
    EXPECT_EQ(many.summary.combinedWindowCycles,
              kRepeat * once.summary.combinedWindowCycles);
    EXPECT_GT(once.summary.buddyWindowCycles, 0u);
    EXPECT_GT(once.summary.combinedWindowCycles, 0u);
}

TEST(TraceTiming, WindowedReplayRoundTripsAtSeveralWindows)
{
    // Record under a windowed (W = 4) engine; the footer carries the
    // windowed totals, an identically-configured target reproduces them
    // bit-for-bit, and the same capture replays under any other window:
    // W = 1 degenerates to the serial totals, larger windows monotonely
    // approach the bandwidth bound.
    EngineConfig cfg = timedEngineConfig(2, "remote");
    cfg.shard.linkWindow = 4;
    ShardedEngine rec(cfg);
    TraceTotals recorded;
    const auto image = recordWorkload(rec, 1024, 19, &recorded);
    EXPECT_GT(recorded.summary.buddyWindowCycles, 0u);
    EXPECT_LT(recorded.summary.windowTotalCycles(),
              recorded.summary.totalCycles());

    TraceReplayer replayer;
    replayer.loadImage(image);
    EXPECT_TRUE(replayer.recordedTotals().summary == recorded.summary);

    const auto replayAt = [&](u64 window) {
        EngineConfig c = timedEngineConfig(2, "remote");
        c.shard.linkWindow = window;
        ShardedEngine eng(c);
        return replayer.replay(eng);
    };

    // Same window: everything reproduces, including windowed totals.
    EXPECT_TRUE(replayAt(4).summary == recorded.summary);

    // W = 1: the windowed fields collapse onto the serial ones.
    const TraceTotals serial = replayAt(1);
    EXPECT_EQ(serial.summary.deviceWindowCycles,
              serial.summary.deviceCycles);
    EXPECT_EQ(serial.summary.buddyWindowCycles,
              serial.summary.buddyCycles);
    EXPECT_EQ(serial.summary.deviceCycles, recorded.summary.deviceCycles);
    EXPECT_EQ(serial.summary.buddyCycles, recorded.summary.buddyCycles);

    // Wider windows hide more latency, never less.
    const TraceTotals wide = replayAt(64);
    EXPECT_LE(wide.summary.windowTotalCycles(),
              recorded.summary.windowTotalCycles());
    EXPECT_LT(wide.summary.windowTotalCycles(),
              serial.summary.windowTotalCycles());
}

TEST(TraceTiming, CodecTotalsRoundTripThroughV5Images)
{
    // The footer round-trips the codec totals, and an identically-
    // configured replay reproduces them bit-for-bit.
    EngineConfig cfg = timedEngineConfig(2, "remote");
    cfg.shard.linkWindow = 4;
    ShardedEngine rec(cfg);
    TraceTotals recorded;
    const auto image = recordWorkload(rec, 512, 59, &recorded);
    EXPECT_GT(recorded.summary.codecCycles, 0u);
    EXPECT_GE(recorded.summary.codecChargedWindowCycles,
              recorded.summary.combinedWindowCycles);

    TraceReplayer replayer;
    replayer.loadImage(image);
    EXPECT_TRUE(replayer.recordedTotals().summary == recorded.summary);

    ShardedEngine fresh(cfg);
    const TraceTotals replayed = replayer.replay(fresh);
    EXPECT_EQ(replayed.summary.codecCycles, recorded.summary.codecCycles);
    EXPECT_EQ(replayed.summary.codecChargedWindowCycles,
              recorded.summary.codecChargedWindowCycles);
}

TEST(TraceTiming, V5FooterFieldOrderIsPinned)
{
    // The round trips above encode and decode through one field table,
    // so they cannot see a reordered row. A hand-built v5 image (no
    // allocations, no batches) whose footer varints count 1..16 pins
    // each footer position to its field by name.
    std::vector<u8> image = {'B', 'D', 'Y', 'T', 5, 0x00, 0xFF};
    for (u8 v = 1; v <= 16; ++v)
        image.push_back(v);
    TraceReplayer replayer;
    replayer.loadImage(std::move(image));
    const BatchSummary &s = replayer.recordedTotals().summary;
    EXPECT_EQ(s.reads, 1u);
    EXPECT_EQ(s.writes, 2u);
    EXPECT_EQ(s.probes, 3u);
    EXPECT_EQ(s.deviceSectors, 4u);
    EXPECT_EQ(s.buddySectors, 5u);
    EXPECT_EQ(s.metadataHits, 6u);
    EXPECT_EQ(s.metadataMisses, 7u);
    EXPECT_EQ(s.buddyAccesses, 8u);
    EXPECT_EQ(s.deviceCycles, 9u);
    EXPECT_EQ(s.buddyCycles, 10u);
    EXPECT_EQ(s.deviceWindowCycles, 11u);
    EXPECT_EQ(s.buddyWindowCycles, 12u);
    EXPECT_EQ(s.combinedWindowCycles, 13u);
    EXPECT_EQ(s.codecCycles, 14u);
    EXPECT_EQ(s.codecChargedWindowCycles, 15u);
    EXPECT_EQ(replayer.recordedTotals().batches, 16u);
}

TEST(TraceTiming, ReplayUnderEitherWindowModeAndAnyWindow)
{
    // One capture replays under both window modes and any W: the
    // traffic and serial cycles always reproduce; the windowed fields
    // follow the replay target's mode — merged totals match the
    // recording (also merged), per-shard totals are the N-GPU
    // makespans, bounded by the merged ones and by the serial charges'
    // structure (the bracket), and reproducible run-to-run.
    EngineConfig cfg = timedEngineConfig(4, "remote");
    cfg.shard.linkWindow = 4;
    ShardedEngine rec(cfg);
    TraceTotals recorded;
    const auto image = recordWorkload(rec, 1024, 37, &recorded);

    TraceReplayer replayer;
    replayer.loadImage(image);

    const auto replayWith = [&](WindowMode mode, u64 window,
                                unsigned shards) {
        EngineConfig c = timedEngineConfig(shards, "remote");
        c.shard.linkWindow = window;
        c.shard.windowMode = mode;
        ShardedEngine eng(c);
        const TraceTotals t = replayer.replay(eng);
        // Engine stats mirror the replayed totals in either mode.
        const BatchSummary st = eng.stats();
        EXPECT_EQ(st.deviceWindowCycles, t.summary.deviceWindowCycles);
        EXPECT_EQ(st.buddyWindowCycles, t.summary.buddyWindowCycles);
        EXPECT_EQ(st.combinedWindowCycles,
                  t.summary.combinedWindowCycles);
        return t;
    };

    // Merged mode reproduces the recording exactly.
    EXPECT_TRUE(replayWith(WindowMode::Merged, 4, 4).summary ==
                recorded.summary);

    // Per-shard mode: same traffic and serial cycles, N-GPU windows.
    const TraceTotals psA = replayWith(WindowMode::PerShard, 4, 4);
    const TraceTotals psB = replayWith(WindowMode::PerShard, 4, 4);
    EXPECT_TRUE(psA.summary == psB.summary);
    EXPECT_EQ(psA.summary.deviceCycles, recorded.summary.deviceCycles);
    EXPECT_EQ(psA.summary.buddyCycles, recorded.summary.buddyCycles);
    EXPECT_LE(psA.summary.combinedWindowCycles,
              recorded.summary.combinedWindowCycles);
    EXPECT_GT(psA.summary.combinedWindowCycles, 0u);
    EXPECT_GE(psA.summary.combinedWindowCycles,
              std::max(psA.summary.deviceWindowCycles,
                       psA.summary.buddyWindowCycles));
    EXPECT_LE(psA.summary.combinedWindowCycles,
              psA.summary.deviceWindowCycles +
                  psA.summary.buddyWindowCycles);

    // Another window and shard count entirely: W = 1 per-shard
    // collapses each GPU's windows onto its serial sub-stream charges,
    // so the per-batch barrier max is bounded by the serial sums.
    const TraceTotals serial = replayWith(WindowMode::PerShard, 1, 2);
    EXPECT_EQ(serial.summary.deviceCycles, recorded.summary.deviceCycles);
    EXPECT_GT(serial.summary.combinedWindowCycles, 0u);
    EXPECT_LE(serial.summary.deviceWindowCycles,
              serial.summary.deviceCycles);
    EXPECT_LE(serial.summary.buddyWindowCycles,
              serial.summary.buddyCycles);
}

TEST(TraceTiming, FuzzedBatchShapesRoundTrip)
{
    // Randomized batch shapes, op mixes, shard counts, and backends:
    // the recorded trace must replay to identical totals on a fresh,
    // identically-configured engine. Seeds are logged so any failure
    // reproduces with a one-line change.
    constexpr u64 kBaseSeed = 0xBDD7'0001;
    const char *backends[] = {"host-um", "remote", "peer"};

    for (unsigned iter = 0; iter < 6; ++iter) {
        const u64 seed = kBaseSeed + iter;
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        Rng rng(seed);

        const unsigned shards = 1 + static_cast<unsigned>(rng.below(4));
        const std::string backend = backends[rng.below(3)];
        EngineConfig cfg = timedEngineConfig(shards, backend);
        cfg.shard.linkWindow = 1 + rng.below(8);
        cfg.shard.windowMode = rng.below(2) ? WindowMode::PerShard
                                            : WindowMode::Merged;

        ShardedEngine rec(cfg);
        TraceRecorderSink recorder;
        rec.attachSink(&recorder);

        // 1-4 allocations of random entry counts.
        std::vector<Addr> vas;
        const unsigned nallocs = 1 + static_cast<unsigned>(rng.below(4));
        for (unsigned a = 0; a < nallocs; ++a) {
            const std::size_t count = 64 + rng.below(512);
            const auto target = static_cast<CompressionTarget>(
                1 + rng.below(4)); // Ratio4..None
            const auto id = rec.allocate("f" + std::to_string(a),
                                         count * kEntryBytes, target);
            ASSERT_TRUE(id.has_value());
            const EngineAllocation &ea = rec.allocations().at(*id);
            recorder.noteAllocation(ea.name, ea.va, ea.bytes, ea.target);
            for (std::size_t i = 0; i < count; ++i)
                vas.push_back(ea.va + i * kEntryBytes);
        }

        // Random batches: writes first (so reads hit written state),
        // then a shuffled read/probe/rewrite mix in random batch sizes.
        std::vector<u8> data(vas.size() * kEntryBytes);
        for (std::size_t e = 0; e < vas.size(); ++e)
            fillBucketEntry(rng,
                            static_cast<unsigned>(rng.below(kPatternBuckets)),
                            data.data() + e * kEntryBytes);
        std::vector<u8> out(vas.size() * kEntryBytes);

        std::size_t e = 0;
        while (e < vas.size()) {
            const std::size_t batch_n =
                std::min<std::size_t>(1 + rng.below(200), vas.size() - e);
            AccessBatch w;
            for (std::size_t i = 0; i < batch_n; ++i, ++e)
                w.write(vas[e], data.data() + e * kEntryBytes);
            rec.execute(w);
        }
        e = 0;
        while (e < vas.size()) {
            const std::size_t batch_n =
                std::min<std::size_t>(1 + rng.below(300), vas.size() - e);
            AccessBatch m;
            for (std::size_t i = 0; i < batch_n; ++i, ++e) {
                switch (rng.below(3)) {
                  case 0:
                    m.read(vas[e], out.data() + e * kEntryBytes);
                    break;
                  case 1:
                    m.probe(vas[e]);
                    break;
                  default:
                    m.write(vas[e], data.data() + e * kEntryBytes);
                    break;
                }
            }
            rec.execute(m);
        }
        rec.detachSink(&recorder);

        TraceReplayer replayer;
        replayer.loadImage(recorder.serialize());
        ASSERT_EQ(replayer.opCount(), recorder.opCount());

        ShardedEngine fresh(cfg);
        const TraceTotals replayed = replayer.replay(fresh);
        EXPECT_TRUE(
            replayed.summary == recorder.totals().summary);
        EXPECT_EQ(replayed.batches, recorder.totals().batches);
    }
}

// ------------------------------------------------------ corrupt traces --
//
// Malformed captures must die fast with a diagnostic (BUDDY_CHECK in
// the decode path) — never crash on an out-of-bounds read and never
// silently mis-parse. The suite runs under ASan/UBSan in CI, so any
// buffer overrun the bounds checks missed would surface here.

/** A small valid capture to corrupt. */
std::vector<u8>
validImage()
{
    ShardedEngine eng(timedEngineConfig(2, "host-um"));
    return recordWorkload(eng, 64, /*seed=*/7);
}

/** Wrap a raw byte image in a replayer load. */
void
loadBytes(std::vector<u8> image)
{
    TraceReplayer replayer;
    replayer.loadImage(std::move(image));
}

TEST(TraceCorruption, BadMagicDies)
{
    std::vector<u8> image = validImage();
    image[0] = 'X';
    EXPECT_DEATH(loadBytes(image), "bad magic");
}

TEST(TraceCorruption, EmptyImageDies)
{
    EXPECT_DEATH(loadBytes({}), "truncated trace");
}

TEST(TraceCorruption, UnsupportedVersionDies)
{
    std::vector<u8> image = validImage();
    // Only the current version (5) loads: the retired v2..v4 footers
    // are shorter, so they must not be parsed as v5 ones.
    for (u8 version : {u8{1}, u8{2}, u8{3}, u8{4}, u8{6}, u8{99}}) {
        image[4] = version;
        EXPECT_DEATH(loadBytes(image), "unsupported trace version")
            << "version byte " << unsigned{version};
    }
}

TEST(TraceCorruption, LoadingADirectoryDies)
{
    // A directory opens for reading, but its stream has no usable size.
    TraceReplayer replayer;
    EXPECT_DEATH(replayer.load(::testing::TempDir()), "trace load failed");
}

TEST(TraceCorruption, TruncatedFooterDies)
{
    const std::vector<u8> whole = validImage();
    // Chop bytes off the end: the footer loses fields, then its tag.
    for (std::size_t cut : {std::size_t{1}, std::size_t{3},
                            std::size_t{8}}) {
        ASSERT_GT(whole.size(), cut);
        std::vector<u8> image(whole.begin(), whole.end() - cut);
        EXPECT_DEATH(loadBytes(image), "truncated trace");
    }
}

TEST(TraceCorruption, MidBatchEofDies)
{
    // Truncate to roughly half the op stream: the image ends inside a
    // batch, before any batch mark or footer.
    const std::vector<u8> whole = validImage();
    std::vector<u8> image(whole.begin(),
                          whole.begin() + whole.size() / 2);
    EXPECT_DEATH(loadBytes(image), "truncated trace");
}

TEST(TraceCorruption, TrailingBytesAfterFooterDie)
{
    std::vector<u8> image = validImage();
    image.push_back(0x00);
    EXPECT_DEATH(loadBytes(image), "trailing bytes after trace footer");
}

TEST(TraceCorruption, OverlongVarintDies)
{
    // magic + version, then an alloc-count varint with continuation
    // bits past the 64-bit capacity (ten 0xFF bytes keep continuing).
    std::vector<u8> image = {'B', 'D', 'Y', 'T', 5};
    for (int i = 0; i < 10; ++i)
        image.push_back(0xFF);
    image.push_back(0x00);
    EXPECT_DEATH(loadBytes(image), "over-long trace varint");
}

TEST(TraceCorruption, TenByteVarintTopBitsRejected)
{
    // A ten-byte varint whose final byte carries more than the one bit
    // that fits in a u64: the high bits would be silently shifted out.
    std::vector<u8> image = {'B', 'D', 'Y', 'T', 5};
    for (int i = 0; i < 9; ++i)
        image.push_back(0x80); // zero payload, keep continuing
    image.push_back(0x02);     // 10th byte: pays into bit 64 — invalid
    EXPECT_DEATH(loadBytes(image), "over-long trace varint");
}

TEST(TraceCorruption, HugeAllocCountDies)
{
    // An alloc count far beyond what the remaining bytes could hold
    // must be rejected before it drives a giant reserve().
    std::vector<u8> image = {'B', 'D', 'Y', 'T', 5};
    // varint 2^62: nine continuation bytes with zero payload, then 4.
    for (int i = 0; i < 8; ++i)
        image.push_back(0x80);
    image.push_back(0x84);
    image.push_back(0x00);
    EXPECT_DEATH(loadBytes(image),
                 "allocation count exceeds image size");
}

/**
 * The header every hand-built op stream starts with: magic, version
 * and one allocation (empty name, entry 0, 128 B) that holds entry 0,
 * followed by @p tail. The loader resolves each op's entry against the
 * allocation table, so an op at entry 0 parses completely and the
 * corruption after it is what fails.
 */
std::vector<u8>
oneAllocation(std::initializer_list<u8> tail)
{
    std::vector<u8> image = {'B', 'D', 'Y', 'T', 5,
                             0x01,              // one allocation:
                             0x00, 0x00,        // empty name, entry 0,
                             0x80, 0x01, 0x00}; // 128 B, no target
    image.insert(image.end(), tail);
    return image;
}

TEST(TraceCorruption, UnknownOpTagDies)
{
    // One op with corrupt tag flag bits (0x20 is neither clear nor the
    // zero-write flag).
    std::vector<u8> image = oneAllocation({});
    image.push_back(0x22); // kind=2 (probe) with junk flag bits
    EXPECT_DEATH(loadBytes(image), "unknown trace op flag bits");
}

TEST(TraceCorruption, ZeroWriteFlagOnNonWriteDies)
{
    std::vector<u8> image = oneAllocation({});
    image.push_back(0x10); // zero-write flag on a read op
    EXPECT_DEATH(loadBytes(image), "zero-write flag on a non-write");
}

TEST(TraceCorruption, RepeatFlagOnNonWriteDies)
{
    // The repeat flag (0x40) names a payload, which only a write has.
    for (u8 tag : {u8{0x40}, u8{0x42}}) { // read, probe
        std::vector<u8> image = oneAllocation({});
        image.push_back(tag);
        image.push_back(0x00); // entry 0
        image.push_back(0x01); // k = 1
        EXPECT_DEATH(loadBytes(image), "repeat flag on a non-write")
            << "tag " << unsigned{tag};
    }
}

TEST(TraceCorruption, RepeatFlagOnZeroWriteDies)
{
    std::vector<u8> image = oneAllocation({});
    image.push_back(0x51); // write | zero | repeat
    image.push_back(0x00);
    image.push_back(0x01);
    EXPECT_DEATH(loadBytes(image), "repeat flag on a zero-write");
}

/** A minimal image whose one batch holds a non-zero write of entry 0
 *  (payload record 1) followed by @p tail. */
std::vector<u8>
afterOnePayload(std::initializer_list<u8> tail)
{
    std::vector<u8> image = oneAllocation({});
    image.push_back(0x01); // write of entry 0
    image.push_back(0x00);
    image.insert(image.end(), kEntryBytes, 0xA5);
    image.insert(image.end(), tail);
    return image;
}

TEST(TraceCorruption, RepeatDistanceZeroDies)
{
    // k = 0 would name the repeat record itself.
    EXPECT_DEATH(loadBytes(afterOnePayload({0x41, 0x00, 0x00})),
                 "trace repeat distance is zero");
}

TEST(TraceCorruption, RepeatBeforeFirstPayloadDies)
{
    // One payload record precedes the repeat, so k = 2 names none.
    EXPECT_DEATH(loadBytes(afterOnePayload({0x41, 0x00, 0x02})),
                 "trace repeat reaches before the first payload");
    // No payload precedes it at all.
    EXPECT_DEATH(loadBytes(oneAllocation({0x41, 0x00, 0x01})),
                 "trace repeat reaches before the first payload");
}

TEST(TraceCorruption, TruncatedRepeatDistanceDies)
{
    // The k varint's continuation bit runs past the end of the image.
    EXPECT_DEATH(loadBytes(afterOnePayload({0x41, 0x00, 0x80})),
                 "truncated trace");
}

TEST(TraceCorruption, EntryIndexOutOfRangeDies)
{
    // An op whose entry index would wrap u64 once scaled by 128.
    std::vector<u8> image = oneAllocation({});
    image.push_back(0x02); // probe
    for (int i = 0; i < 8; ++i)
        image.push_back(0xFF); // index varint: 2^56-ish payload
    image.push_back(0x7F);
    EXPECT_DEATH(loadBytes(image), "entry index out of range");
}

TEST(TraceCorruption, BatchCountMismatchDies)
{
    std::vector<u8> image = oneAllocation({});
    image.push_back(0x02); // probe of entry 0
    image.push_back(0x00);
    image.push_back(0xFE); // batch mark claiming 2 ops, but only 1 ran
    image.push_back(0x02);
    EXPECT_DEATH(loadBytes(image), "op count mismatch");
}

TEST(TraceCorruption, FooterInsideBatchDies)
{
    // An op stream that hits the footer without a closing batch mark.
    std::vector<u8> image = oneAllocation({});
    image.push_back(0x02); // probe of entry 0
    image.push_back(0x00);
    image.push_back(0xFF); // footer tag
    for (int i = 0; i < 16; ++i)
        image.push_back(0x00); // footer totals (all zero)
    EXPECT_DEATH(loadBytes(image), "unterminated batch");
}

/** An image of two allocations — "a": entries 4..5 (256 B); "b":
 *  entries 10..11 (200 B, so its last entry is partial) — holding one
 *  batch that probes entry @p idx. */
std::vector<u8>
probeOfTwoAllocations(u8 idx)
{
    std::vector<u8> image = {'B', 'D', 'Y', 'T', 5, 0x02,
                             0x01, 'a', 0x04, 0x80, 0x02, 0x00,
                             0x01, 'b', 0x0A, 0xC8, 0x01, 0x00};
    image.insert(image.end(), {0x02, idx, 0xFE, 0x01, 0xFF});
    image.insert(image.end(), 16, 0x00); // footer totals (all zero)
    return image;
}

TEST(TraceCorruption, OpOutsideEveryAllocationDies)
{
    // The loader resolves each op to the allocation that holds it, so
    // an address no allocation holds fails the load, not the replay.
    for (u8 idx : {u8{4}, u8{5}, u8{10}, u8{11}}) {
        TraceReplayer replayer;
        replayer.loadImage(probeOfTwoAllocations(idx));
        EXPECT_EQ(replayer.opCount(), 1u) << "entry " << unsigned{idx};
    }
    // Below the first allocation, in the gap between the two, and one
    // entry past "b", whose 200 B end inside entry 11.
    for (u8 idx : {u8{3}, u8{7}, u8{12}})
        EXPECT_DEATH(loadBytes(probeOfTwoAllocations(idx)),
                     "trace address outside every recorded allocation")
            << "entry " << unsigned{idx};
}

void
appendVarint(std::vector<u8> &out, u64 v)
{
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<u8>(v) | 0x80);
    out.push_back(static_cast<u8>(v));
}

/** An image of @p count unnamed allocations of @p bytes each, all at
 *  entry 0, and no batches. */
std::vector<u8>
allocationsOnly(u64 count, u64 bytes)
{
    std::vector<u8> image = {'B', 'D', 'Y', 'T', 5};
    appendVarint(image, count);
    for (u64 i = 0; i < count; ++i) {
        image.insert(image.end(), {0x00, 0x00}); // empty name, entry 0
        appendVarint(image, bytes);
        image.push_back(0x00);
    }
    image.push_back(0xFF);
    image.insert(image.end(), 16, 0x00); // footer totals (all zero)
    return image;
}

TEST(TraceCorruption, AllocationCountBeyondOrdinalsDies)
{
    // An op names its allocation by a 16-bit ordinal.
    TraceReplayer replayer;
    replayer.loadImage(allocationsOnly(u64{1} << 16, kEntryBytes));
    EXPECT_EQ(replayer.allocations().size(), u64{1} << 16);
    EXPECT_DEATH(loadBytes(allocationsOnly((u64{1} << 16) + 1, kEntryBytes)),
                 "trace allocation count exceeds the op table's ordinals");
}

TEST(TraceCorruption, AllocationBeyondEntryOffsetsDies)
{
    // An op names its entry by a 32-bit offset into its allocation, so
    // an allocation holds at most 2^32 entries (512 GiB).
    const u64 max_bytes = (u64{1} << 32) * kEntryBytes;
    TraceReplayer replayer;
    replayer.loadImage(allocationsOnly(1, max_bytes));
    EXPECT_EQ(replayer.allocations().at(0).bytes, max_bytes);
    EXPECT_DEATH(loadBytes(allocationsOnly(1, max_bytes + 1)),
                 "trace allocation exceeds the op table's entry offsets");
}

/** A cursor target that hands out base addresses and backs none: a
 *  cursor over it shows the plans, marks included, of any image. */
struct AddressOnlyTarget
{
    Addr next = 0;

    std::optional<Addr>
    allocate(const std::string &, u64 bytes, CompressionTarget)
    {
        const Addr va = next;
        next += (bytes + kEntryBytes - 1) / kEntryBytes * kEntryBytes;
        return va;
    }
};

TEST(TraceCorruption, HugeAllocationGetsNoMarkState)
{
    // Marking unchanged writes keeps a slot per entry of each written
    // allocation, bounded by the image's size, not by the declared one.
    // One allocation of 2^32 entries (the largest that loads) with a
    // payload and a repeat of it gets no slots, so the repeat loads
    // unmarked and would just encode; the same ops on a one-entry
    // allocation mark it.
    for (const u64 bytes : {(u64{1} << 32) * kEntryBytes, u64{kEntryBytes}}) {
        SCOPED_TRACE("bytes " + std::to_string(bytes));
        std::vector<u8> image = {'B', 'D', 'Y', 'T', 5, 0x01, 0x00, 0x00};
        appendVarint(image, bytes);
        image.push_back(static_cast<u8>(CompressionTarget::Ratio2));
        image.insert(image.end(), {0x01, 0x00}); // write of entry 0
        image.insert(image.end(), kEntryBytes, 0xA5);
        image.insert(image.end(), {0x41, 0x00, 0x01}); // repeat of it
        image.insert(image.end(), {0xFE, 0x02, 0xFF});
        image.insert(image.end(), 16, 0x00); // footer totals (all zero)

        TraceReplayer replayer;
        replayer.loadImage(image);
        AddressOnlyTarget target;
        TraceCursor cursor(replayer, target);
        AccessBatch plan;
        std::vector<u8> read_buf;
        ASSERT_TRUE(cursor.next(plan, read_buf));
        ASSERT_EQ(plan.size(), 2u);
        EXPECT_FALSE(plan.ops()[0].unchanged);
        EXPECT_EQ(plan.ops()[1].unchanged, bytes == kEntryBytes);
    }
}

} // namespace
} // namespace buddy
