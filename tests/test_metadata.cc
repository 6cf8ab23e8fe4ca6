/**
 * @file
 * Tests for the 4-bit per-entry metadata, its EntryRecord, and the
 * sliced set-associative metadata cache (paper Section 3.2, Figure 5).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/metadata.h"
#include "metadata_reference.h"

namespace buddy {
namespace {

using testutil::ReferenceMetadataCache;

TEST(MetadataOverhead, IsPointFourPercent)
{
    // 4 bits per 128 B entry = 0.39% of the covered capacity.
    const double overhead = static_cast<double>(kMetadataBitsPerEntry) /
                            static_cast<double>(kEntryBytes * 8);
    EXPECT_NEAR(overhead, 0.0039, 0.0002);
}

TEST(EntryRecord, FourBytesAndOverflowFollowsTheStoredSize)
{
    EXPECT_EQ(sizeof(EntryRecord), 4u);

    const EntryRecord zero;
    EXPECT_EQ(zero.meta, EntryMeta::Zero);
    EXPECT_EQ(zero.storedBytes(), 0u);
    EXPECT_FALSE(zero.overflows(8));

    const EntryRecord raw{kEntryBytes * 8, EntryMeta::Raw};
    EXPECT_EQ(raw.storedBytes(), kEntryBytes);
    EXPECT_TRUE(raw.overflows(64));
    EXPECT_FALSE(raw.overflows(kEntryBytes));

    // 513 bits round up to 65 bytes: one past a 2x slot.
    const EntryRecord three{513, EntryMeta::Sectors3};
    EXPECT_EQ(three.storedBytes(), 65u);
    EXPECT_TRUE(three.overflows(64));
    EXPECT_FALSE(three.overflows(96));
}

TEST(MetaSectors, RawCountsAsFourSectors)
{
    EXPECT_EQ(metaSectors(EntryMeta::Zero), 0u);
    EXPECT_EQ(metaSectors(EntryMeta::Sectors1), 1u);
    EXPECT_EQ(metaSectors(EntryMeta::Sectors4), 4u);
    EXPECT_EQ(metaSectors(EntryMeta::Raw), 4u);
}

TEST(MetadataCache, LineCoversSixtyFourEntries)
{
    MetadataCache c(MetadataCacheConfig{});
    EXPECT_EQ(c.entriesPerLine(), 64u);
}

TEST(MetadataCache, FirstAccessMissesThenHits)
{
    MetadataCache c(MetadataCacheConfig{});
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(1)); // same 64-entry line
    EXPECT_TRUE(c.access(63));
    EXPECT_FALSE(c.access(64)); // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.accesses(), 5u);
    // The hit rate is built from the same two counters.
    EXPECT_EQ(c.hitRate().numerator(), 3.0);
    EXPECT_EQ(c.hitRate().denominator(), 5.0);
}

TEST(MetadataCache, NeighbourPrefetchEffect)
{
    // Streaming through contiguous entries should hit 63 times per miss.
    MetadataCache c(MetadataCacheConfig{});
    for (std::size_t e = 0; e < 64 * 100; ++e)
        c.access(e);
    EXPECT_EQ(c.misses(), 100u);
    EXPECT_NEAR(c.hitRate().value(), 63.0 / 64.0, 1e-9);
}

TEST(MetadataCache, FlushDropsContents)
{
    MetadataCache c(MetadataCacheConfig{});
    c.access(0);
    EXPECT_TRUE(c.access(0));
    c.flush();
    EXPECT_FALSE(c.access(0));
}

TEST(MetadataCache, LruEvictionWithinSet)
{
    // 1 slice, 2 ways, 1 set => two lines fit; the third evicts the LRU.
    MetadataCacheConfig cfg;
    cfg.slices = 1;
    cfg.ways = 2;
    cfg.lineBytes = 32;
    cfg.totalBytes = 64; // 2 lines total -> 1 set
    MetadataCache c(cfg);

    const std::size_t line = c.entriesPerLine();
    EXPECT_FALSE(c.access(0 * line));
    EXPECT_FALSE(c.access(1 * line));
    EXPECT_TRUE(c.access(0 * line));  // 0 now MRU
    EXPECT_FALSE(c.access(2 * line)); // evicts line 1
    EXPECT_TRUE(c.access(0 * line));
    EXPECT_FALSE(c.access(1 * line)); // line 1 was evicted
}

TEST(MetadataCache, HashedPlacementDefeatsStrideConflicts)
{
    // With plain modulo placement, 32 streams spaced by a multiple of
    // the slice count collapse onto one slice and thrash. The hashed
    // placement (mirroring real channel-interleaving hashes) must keep
    // a strided working set that fits in half the cache mostly resident.
    MetadataCacheConfig cfg;
    cfg.slices = 4;
    cfg.ways = 1;
    cfg.lineBytes = 32;
    cfg.totalBytes = 128 * 32; // 128 lines for 32 strided lines
    MetadataCache c(cfg);

    const std::size_t line = c.entriesPerLine();
    const std::size_t stride = 24 * line; // 24 lines: 24 % 4 == 0
    for (int pass = 0; pass < 50; ++pass)
        for (unsigned i = 0; i < 32; ++i)
            c.access(i * stride);
    EXPECT_GT(c.hitRate().value(), 0.5)
        << "stride-conflicting streams must not thrash";
}

/** The geometries the reference checks run at: the default, slice and
 *  set counts that are not powers of two, and a single set. */
struct Geometry
{
    unsigned slices, ways;
    std::size_t totalBytes;
};
const Geometry kGeometries[] = {
    {8, 4, 64 * KiB},       // the default: 8 slices x 64 sets x 4 ways
    {3, 2, 3 * 5 * 2 * 32}, // 3 slices x 5 sets x 2 ways
    {7, 1, 7 * 6 * 32},     // 7 slices x 6 sets, direct mapped
    {1, 4, 4 * 32},         // 1 slice, 1 set
};

MetadataCacheConfig
configFor(const Geometry &g)
{
    MetadataCacheConfig cfg;
    cfg.slices = g.slices;
    cfg.ways = g.ways;
    cfg.lineBytes = 32;
    cfg.totalBytes = g.totalBytes;
    return cfg;
}

TEST(MetadataCache, PlacementMatchesTheSliceThenSetReference)
{
    // Hit for hit against the reference, over a working set a few times
    // the cache's capacity (so sets conflict and evict).
    for (const Geometry &g : kGeometries) {
        const MetadataCacheConfig cfg = configFor(g);
        MetadataCache cache(cfg);
        ReferenceMetadataCache ref(cfg);
        const std::size_t lines = 3 * cfg.totalBytes / cfg.lineBytes + 4;
        Rng rng(g.slices * 100 + g.ways);
        for (std::size_t i = 0; i < 20000; ++i) {
            // Mostly a bounded working set, some far-away entries.
            const std::size_t e =
                rng.below(8) == 0
                    ? rng.below(u64{1} << 40)
                    : rng.below(lines) * cache.entriesPerLine() +
                          rng.below(cache.entriesPerLine());
            ASSERT_EQ(cache.access(e), ref.access(e))
                << g.slices << " slices, " << g.ways << " ways, access " << i;
        }
        EXPECT_GT(cache.misses(), 0u);
        EXPECT_LT(cache.misses(), cache.accesses());
    }
}

TEST(MetadataCache, RepeatedLineRunsMatchTheReference)
{
    // access() answers a repeat of the last access's line before placing
    // it. Runs of 1-200 accesses inside one line (half of them one or
    // two long), mostly on lines that share one set, so that lines evict
    // each other between runs; across a flush(); and in a copy taken
    // mid-stream that then runs interleaved with the original: every
    // answer must be the reference's.
    for (const Geometry &g : kGeometries) {
        SCOPED_TRACE(::testing::Message()
                     << g.slices << " slices, " << g.ways << " ways");
        const MetadataCacheConfig cfg = configFor(g);
        MetadataCache cache(cfg);
        ReferenceMetadataCache ref(cfg);
        const u64 perLine = ref.entriesPerLine();

        // ways + 2 lines placed in line 0's set.
        std::vector<u64> conflicting{0};
        for (u64 line = 1; conflicting.size() < g.ways + 2; ++line)
            if (ref.placement(line) == ref.placement(0))
                conflicting.push_back(line);

        // One run's line: the next conflicting line in turn (cycling
        // ways + 2 lines through one set misses on each), any
        // conflicting line, the line after the last run's (its first
        // entry borders that line), the line before it, or any line.
        u64 line = 0;
        u64 prev = 0;
        u64 turn = 0;
        u64 run = 0;
        const auto oneRun = [&](MetadataCache &c, ReferenceMetadataCache &r,
                                Rng &rng) {
            const u64 last = line;
            switch (rng.below(8)) {
              case 0:
              case 1:
              case 2: line = conflicting[turn++ % conflicting.size()]; break;
              case 3:
              case 4:
                line = conflicting[rng.below(conflicting.size())];
                break;
              case 5: line = last + 1; break;
              case 6: line = prev; break;
              default: line = rng.below(u64{1} << 30); break;
            }
            prev = last;
            const u64 len = 1 + rng.below(rng.below(2) == 0 ? 2 : 200);
            for (u64 i = 0; i < len; ++i) {
                const u64 e = line * perLine +
                              (i == 0 ? 0 : rng.below(perLine));
                ASSERT_EQ(c.access(e), r.access(e))
                    << "run " << run << ", access " << i;
            }
            ++run;
        };

        Rng rng(g.slices * 10 + g.ways);
        for (int i = 0; i < 300 && !HasFatalFailure(); ++i)
            oneRun(cache, ref, rng);
        cache.flush();
        ref.flush();
        // The flush dropped the line the last access touched.
        ASSERT_FALSE(cache.access(line * perLine));
        ref.access(line * perLine);
        for (int i = 0; i < 300 && !HasFatalFailure(); ++i)
            oneRun(cache, ref, rng);

        MetadataCache copy = cache;
        ReferenceMetadataCache refCopy = ref;
        Rng copyRng(g.slices * 10 + g.ways + 1);
        for (int i = 0; i < 300 && !HasFatalFailure(); ++i) {
            oneRun(cache, ref, rng);
            oneRun(copy, refCopy, copyRng);
        }
        ASSERT_FALSE(HasFatalFailure());
        EXPECT_GT(cache.misses(), 0u);
        EXPECT_GT(copy.misses(), 0u);
        // Most accesses repeat the last access's line.
        EXPECT_GT(cache.accesses(), 20 * cache.misses());
    }
}

/** Hit rate grows monotonically with capacity on a looping working set. */
class MetadataCacheSizeSweep
    : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(MetadataCacheSizeSweep, HitRateReasonableForWorkingSet)
{
    MetadataCacheConfig cfg;
    cfg.totalBytes = GetParam();
    MetadataCache c(cfg);

    // Working set: 1 MB of entries (8192 entries = 128 lines), looped.
    Rng rng(5);
    const std::size_t entries = 8192;
    for (int pass = 0; pass < 20; ++pass)
        for (std::size_t e = 0; e < entries; e += 1 + rng.below(4))
            c.access(e);

    if (cfg.totalBytes >= 128 * 32) {
        // Whole working set fits: close to perfect after warmup.
        EXPECT_GT(c.hitRate().value(), 0.95);
    } else {
        EXPECT_GT(c.hitRate().value(), 0.5); // spatial reuse still helps
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MetadataCacheSizeSweep,
                         ::testing::Values(1024, 4096, 65536, 262144));

} // namespace
} // namespace buddy
