/**
 * @file
 * Tests for the 4-bit per-entry metadata, its EntryRecord, and the
 * sliced set-associative metadata cache (paper Section 3.2, Figure 5).
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/metadata.h"

namespace buddy {
namespace {

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
