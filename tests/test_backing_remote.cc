/**
 * @file
 * Round-trip tests of the "remote" BackingStore, the disaggregated /
 * far-memory backend: under direct use, behind a single controller's
 * buddy carve-out, and behind a sharded engine where every shard owns
 * its own remote store. Traffic is checked where it is counted, in the
 * batch summaries.
 *
 * Residency tests of every kind: a store's resident memory follows the
 * bytes allocations reserve, not its capacity, and a store never
 * exposes an earlier store's bytes.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <fstream>

#include "api/backing_store.h"
#include "core/controller.h"
#include "engine/engine.h"
#include "workloads/patterns.h"

namespace buddy {
namespace {

TEST(RemoteBackingStore, DirectRoundTrip)
{
    const auto store = makeBackingStore("remote", 256 * KiB);
    EXPECT_STREQ(store->kind(), "remote");
    EXPECT_EQ(store->capacity(), 256 * KiB);

    // Write every entry, then read them all back: each slot keeps its
    // own bytes. The slots are visited in a scrambled order (3 is
    // coprime to kOps).
    Rng rng(7);
    const std::size_t kOps = 64;
    std::vector<u8> data(kOps * kEntryBytes), out(kOps * kEntryBytes);
    for (auto &b : data)
        b = static_cast<u8>(rng.below(256));
    for (std::size_t i = 0; i < kOps; ++i)
        store->write((i * 3 % kOps) * kEntryBytes,
                     data.data() + i * kEntryBytes, kEntryBytes);
    for (std::size_t i = 0; i < kOps; ++i)
        store->read((i * 3 % kOps) * kEntryBytes,
                    out.data() + i * kEntryBytes, kEntryBytes);
    EXPECT_EQ(std::memcmp(data.data(), out.data(), data.size()), 0);
}

TEST(RemoteBackingStore, ControllerDrivenRoundTrip)
{
    BuddyConfig cfg;
    cfg.deviceBytes = 8 * MiB;
    cfg.buddyBackend = "remote";
    BuddyController gpu(cfg);
    const BackingStore &remote = gpu.carveOut().store();
    EXPECT_STREQ(remote.kind(), "remote");
    EXPECT_EQ(remote.capacity(), cfg.deviceBytes * cfg.carveOutRatio);

    const auto id = gpu.allocate("a", 128 * KiB, CompressionTarget::Ratio4);
    ASSERT_TRUE(id.has_value());
    const Addr va = *id;

    // Random entries do not compress below 97 B, so under a 4x target
    // each one keeps its one device sector and spills three sectors
    // into its buddy slot in the remote carve-out, on write and on read.
    Rng rng(3);
    const std::size_t n = 64;
    std::vector<u8> data(n * kEntryBytes), out(n * kEntryBytes);
    for (auto &b : data)
        b = static_cast<u8>(rng.below(256));

    AccessBatch plan;
    for (std::size_t i = 0; i < n; ++i)
        plan.write(va + i * kEntryBytes, data.data() + i * kEntryBytes);
    const BatchSummary w = gpu.execute(plan);
    EXPECT_EQ(w.buddyAccesses, n);
    EXPECT_EQ(w.deviceSectors, n);
    EXPECT_EQ(w.buddySectors, 3 * n);

    plan.clear();
    for (std::size_t i = 0; i < n; ++i)
        plan.read(va + i * kEntryBytes, out.data() + i * kEntryBytes);
    const BatchSummary r = gpu.execute(plan);
    EXPECT_EQ(r.buddyAccesses, n);
    EXPECT_EQ(r.deviceSectors, n);
    EXPECT_EQ(r.buddySectors, 3 * n);

    // Reads reassemble exactly the bytes written, and every entry
    // stays an overflow entry.
    EXPECT_EQ(std::memcmp(data.data(), out.data(), n * kEntryBytes), 0);
    EXPECT_EQ(gpu.overflowEntries(), n);
}

TEST(RemoteBackingStore, EngineDrivenRoundTripAcrossShards)
{
    EngineConfig cfg;
    cfg.shards = 4;
    cfg.shard.deviceBytes = 8 * MiB;
    cfg.shard.buddyBackend = "remote";
    ShardedEngine eng(cfg);

    // Each shard owns its own remote carve-out of the configured size.
    for (unsigned s = 0; s < eng.shardCount(); ++s) {
        EXPECT_STREQ(eng.shard(s).carveOut().store().kind(), "remote");
        EXPECT_EQ(eng.shard(s).carveOut().store().capacity(),
                  cfg.shard.deviceBytes * cfg.shard.carveOutRatio);
    }

    std::vector<Addr> vas;
    for (std::size_t a = 0; a < 8; ++a) {
        const auto id = eng.allocate("a" + std::to_string(a), 64 * KiB,
                                     CompressionTarget::Ratio4);
        ASSERT_TRUE(id.has_value());
        const Addr base = *id;
        for (std::size_t i = 0; i < 64 * KiB / kEntryBytes; ++i)
            vas.push_back(base + i * kEntryBytes);
    }

    Rng rng(11);
    std::vector<u8> data(vas.size() * kEntryBytes);
    std::vector<u8> out(vas.size() * kEntryBytes);
    for (auto &b : data)
        b = static_cast<u8>(rng.below(256));

    AccessBatch plan;
    for (std::size_t i = 0; i < vas.size(); ++i)
        plan.write(vas[i], data.data() + i * kEntryBytes);
    const BatchSummary w = eng.execute(plan);
    plan.clear();
    for (std::size_t i = 0; i < vas.size(); ++i)
        plan.read(vas[i], out.data() + i * kEntryBytes);
    const BatchSummary r = eng.execute(plan);

    EXPECT_EQ(std::memcmp(data.data(), out.data(), data.size()), 0);

    // Summed across shards the traffic is exactly the single-store
    // traffic: every (incompressible) entry spills three sectors each
    // way, wherever its allocation was placed.
    for (const BatchSummary *s : {&w, &r}) {
        EXPECT_EQ(s->buddyAccesses, vas.size());
        EXPECT_EQ(s->deviceSectors, vas.size());
        EXPECT_EQ(s->buddySectors, 3 * vas.size());
    }
    unsigned shards_touched = 0;
    for (unsigned s = 0; s < eng.shardCount(); ++s)
        if (eng.shard(s).overflowEntries() > 0)
            ++shards_touched;
    EXPECT_GT(shards_touched, 1u) << "hash placed everything on one shard";
}

/** This process's resident set size in bytes (/proc/self/statm). */
u64
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    u64 size_pages = 0, resident_pages = 0;
    statm >> size_pages >> resident_pages;
    EXPECT_TRUE(statm.good()) << "cannot read /proc/self/statm";
    return resident_pages * static_cast<u64>(::sysconf(_SC_PAGESIZE));
}

TEST(BackingStore, ResidentMemoryFollowsReservedBytes)
{
    const u64 start = residentBytes();

    BuddyConfig cfg;
    cfg.deviceBytes = 16 * MiB;
    // A 16 MiB heap block is below glibc's 32 MiB mmap ceiling, so once
    // a store of that size is freed the allocator would hand the next
    // one recycled heap memory: a heap-backed store would be resident
    // in full from then on.
    for (int i = 0; i < 3; ++i)
        BuddyController discarded(cfg);

    BuddyController gpu(cfg);
    const auto ratio2 =
        gpu.allocate("ratio2", 64 * KiB, CompressionTarget::Ratio2);
    // 0 buddy bytes: its range sits at the buddy allocator's sentinel
    // base, one past the end of the 48 MiB carve-out.
    const auto none = gpu.allocate("none", 64 * KiB, CompressionTarget::None);
    ASSERT_TRUE(ratio2 && none);

    const Addr va = *ratio2;
    Rng rng(5);
    std::vector<u8> data(64 * KiB), out(64 * KiB);
    for (auto &b : data)
        b = static_cast<u8>(rng.below(256));
    AccessBatch plan;
    for (std::size_t i = 0; i < data.size() / kEntryBytes; ++i)
        plan.write(va + i * kEntryBytes, data.data() + i * kEntryBytes);
    gpu.execute(plan);
    plan.clear();
    for (std::size_t i = 0; i < data.size() / kEntryBytes; ++i)
        plan.read(va + i * kEntryBytes, out.data() + i * kEntryBytes);
    gpu.execute(plan);
    ASSERT_EQ(std::memcmp(data.data(), out.data(), data.size()), 0);

    // 16 MiB of device memory and a 48 MiB carve-out are configured;
    // 128 KiB of device slots and 32 KiB of buddy slots are reserved.
    const u64 now = residentBytes();
    const u64 grown = now > start ? now - start : 0;
    EXPECT_LT(grown, 4 * MiB) << "resident memory grew by " << grown
                              << " bytes";
}

TEST(BackingStore, UnwrittenBytesReadZeroAfterReuse)
{
    const u64 kBytes = 1 * MiB;
    const u64 kPopulated = kBytes / 2;
    for (const auto &kind : api::backingStoreKinds()) {
        {
            const auto used = makeBackingStore(kind, kBytes);
            used->populate(0, kBytes);
            std::vector<u8> pattern(kBytes);
            for (u64 i = 0; i < kBytes; ++i)
                pattern[i] = static_cast<u8>(i * 31 + 7) | 1;
            used->write(0, pattern.data(), kBytes);
        }

        // A store of the same size, half of it faulted in: every byte
        // reads zero, in both halves.
        const auto fresh = makeBackingStore(kind, kBytes);
        fresh->populate(0, kPopulated);
        std::vector<u8> out(kBytes, 0xff);
        fresh->read(0, out.data(), kBytes);
        for (u64 i = 0; i < kBytes; ++i)
            ASSERT_EQ(out[i], 0u) << kind << " byte " << i
                                  << (i < kPopulated ? " (populated)"
                                                     : " (untouched)");

        // populate() keeps what was written.
        const u8 entry[4] = {1, 2, 3, 4};
        fresh->write(kPopulated + 4096, entry, sizeof(entry));
        fresh->populate(kPopulated, kBytes - kPopulated);
        u8 back[4] = {};
        fresh->read(kPopulated + 4096, back, sizeof(back));
        EXPECT_EQ(std::memcmp(entry, back, sizeof(entry)), 0) << kind;
    }
}

} // namespace
} // namespace buddy
