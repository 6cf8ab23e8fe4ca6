/**
 * @file
 * Integration tests for the BuddyController: allocation accounting,
 * functional read/write round trips through compressed device + buddy
 * storage, traffic accounting, and the no-data-movement property that
 * defines the design.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "core/controller.h"

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
    const Addr va = c.allocations().at(*id).va;

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

TEST(Controller, CompressibleEntryStaysOnDevice)
{
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr va = c.allocations().at(*id).va;

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
    const Addr va = c.allocations().at(*id).va;

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
    EXPECT_EQ(c.stats().overflowEntries, 1u);
}

TEST(Controller, CompressibilityChangeMovesNoOtherData)
{
    // The defining property (Section 3.3): an entry growing incompressible
    // only changes its own slots. Neighbouring entries keep their exact
    // device/buddy placement.
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Addr base = c.allocations().at(*id).va;

    Rng rng(3);
    u8 neighbor[kEntryBytes];
    fillCompressible(rng, neighbor);
    writeOne(c, base, neighbor);
    writeOne(c, base + 2 * kEntryBytes, neighbor);

    u8 entry[kEntryBytes];
    fillCompressible(rng, entry);
    writeOne(c, base + kEntryBytes, entry);
    EXPECT_EQ(c.stats().overflowEntries, 0u);

    // Overwrite the middle entry with incompressible data.
    fillRandom(rng, entry);
    const auto w = writeOne(c, base + kEntryBytes, entry);
    EXPECT_TRUE(w.usedBuddy());
    EXPECT_EQ(c.stats().overflowEntries, 1u);

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
    EXPECT_EQ(c.stats().overflowEntries, 0u);
}

TEST(Controller, RawFallbackRoundTripsThroughBothMemories)
{
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio4);
    ASSERT_TRUE(id);
    const Addr va = c.allocations().at(*id).va;

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
    const Addr va = c.allocations().at(*id).va;

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
    const Addr va = c.allocations().at(*id).va;

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

TEST(ControllerDeath, MisalignedAccessPanics)
{
    BuddyController c(smallConfig());
    const auto id = c.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    u8 out[kEntryBytes];
    EXPECT_DEATH(readOne(c, c.allocations().at(*id).va + 1, out),
                 "aligned");
}

TEST(ControllerDeath, UnmappedAccessPanics)
{
    BuddyController c(smallConfig());
    u8 out[kEntryBytes];
    EXPECT_DEATH(readOne(c, 0x10000000ull, out), "allocation");
}

} // namespace
} // namespace buddy
