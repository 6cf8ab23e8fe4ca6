/**
 * @file
 * Closed-form tests of the link timing layer: N sequential round trips
 * at latency L / bandwidth B must cost exactly the analytically
 * expected cycle count — on the raw servers, through
 * RequestWindow::cost, and through BuddyController::execute over dram /
 * remote / peer backing stores, where every per-operation cycle charge
 * must be a pure function of the operation's traffic (whole 32 B
 * sectors). Also pins the zero-size request contract across all three
 * timing layers (the LatencyBandwidthServer cycle layer, the
 * continuous-time SectorServer, and the windowed
 * RequestWindow/WindowGroup): zero size means non-request — no cost,
 * no clock advance, no slot, no counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "api/backing_store.h"
#include "core/controller.h"
#include "engine/engine.h"
#include "timing/link_model.h"
#include "timing/servers.h"
#include "timing/window.h"
#include "workloads/patterns.h"

namespace buddy {
namespace {

using timing::LatencyBandwidthServer;
using timing::LinkDir;
using timing::LinkTiming;

/** ceil(bytes / bpc) with the store's 32 B sector rounding applied. */
Cycles
xferCycles(u64 bytes, u64 bpc)
{
    const u64 sect =
        (bytes + kSectorBytes - 1) / kSectorBytes * kSectorBytes;
    return bpc ? (sect + bpc - 1) / bpc : 0;
}

/** One op executed alone: its result, and its one-op batch's summary,
 *  whose serial totals are exactly that op's link charges. */
struct SoloOp
{
    AccessInfo info;
    BatchSummary summary;
};

/** Execute every op of @p plan, in plan order, as its own one-op batch. */
std::vector<SoloOp>
executeEach(BuddyController &gpu, const AccessBatch &plan)
{
    std::vector<SoloOp> out;
    AccessBatch one(1);
    for (const AccessRequest &op : plan.ops()) {
        one.clear();
        if (op.kind == AccessKind::Write)
            one.write(op.va, op.src);
        else if (op.kind == AccessKind::Read)
            one.read(op.va, op.dst);
        else
            one.probe(op.va);
        const BatchSummary s = gpu.execute(one);
        out.push_back({one.result(0), s});
    }
    return out;
}

TEST(LatencyBandwidthServer, SequentialRoundTripsMatchClosedForm)
{
    // Blocking driver: each request issues at the completion of the
    // previous one. N round trips of b bytes at latency L and bandwidth
    // B must land exactly at N * (L + ceil(b / B)).
    constexpr Cycles kLat = 100;
    constexpr u64 kBpc = 16;
    LatencyBandwidthServer s(kLat, kBpc);

    Cycles now = 0;
    constexpr unsigned kN = 50;
    for (unsigned i = 0; i < kN; ++i)
        now = s.request(now, kEntryBytes);
    EXPECT_EQ(now, kN * (kLat + kEntryBytes / kBpc));
    EXPECT_EQ(s.queuedCycles(), 0u); // never waited behind itself
    EXPECT_EQ(s.busyCycles(), kN * (kEntryBytes / kBpc));
    EXPECT_EQ(s.bytesServed(), kN * kEntryBytes);
    EXPECT_EQ(s.requests(), kN);
}

TEST(LatencyBandwidthServer, OverlappedRequestsQueueFcfs)
{
    // Three 128 B requests all arriving at t=0 on a 32 B/cycle pipe
    // with 10-cycle latency: transfers serialize (4 cycles each), the
    // latency pipelines.
    LatencyBandwidthServer s(10, 32);
    EXPECT_EQ(s.request(0, 128), 14u);
    EXPECT_EQ(s.request(0, 128), 18u);
    EXPECT_EQ(s.request(0, 128), 22u);
    EXPECT_EQ(s.queuedCycles(), 4u + 8u);

    // An idle gap resets the queue.
    EXPECT_EQ(s.request(100, 128), 114u);
    EXPECT_EQ(s.queuedCycles(), 12u);
}

TEST(LatencyBandwidthServer, ZeroBytesAndInfiniteBandwidthAreFree)
{
    LatencyBandwidthServer s(50, 0); // 0 = infinite bandwidth
    EXPECT_EQ(s.request(7, 0), 7u);  // zero-byte request: no charge
    EXPECT_EQ(s.cost(0), 0u);
    EXPECT_EQ(s.cost(4096), 50u);    // latency only
    EXPECT_EQ(s.request(7, 4096), 57u);
}

TEST(LinkModel, ZeroSizeRequestContractHoldsAcrossAllTimingLayers)
{
    // The zero-size request contract (documented in timing/link_model.h):
    // a zero-size request is a non-request at EVERY timing layer — it
    // returns immediately, charges nothing, advances no clock, occupies
    // no window slot, and updates no counter. The three layers grew up
    // independently, so this cross-layer test pins them to one behavior
    // instead of letting the semantics drift apart again.

    // Layer 1: the integer-cycle LatencyBandwidthServer.
    LatencyBandwidthServer lbs(50, 16);
    lbs.request(0, 128); // prime with one real request
    const u64 req_before = lbs.requests();
    const u64 bytes_before = lbs.bytesServed();
    const Cycles busy_before = lbs.busyCycles();
    EXPECT_EQ(lbs.cost(0), 0u);
    EXPECT_EQ(lbs.request(77, 0), 77u); // returns `now`, no latency
    EXPECT_EQ(lbs.requests(), req_before);
    EXPECT_EQ(lbs.bytesServed(), bytes_before);
    EXPECT_EQ(lbs.busyCycles(), busy_before);
    EXPECT_EQ(lbs.queuedCycles(), 0u);

    // Layer 2: the continuous-time SectorServer.
    timing::SectorServer ss(2.0, 30.0);
    ss.request(0.0, 4); // prime
    const double free_before = ss.nextFree();
    const double sbusy_before = ss.busyTime();
    const u64 sect_before = ss.sectorsTransferred();
    EXPECT_EQ(ss.request(123.5, 0), 123.5); // `now` back, no latency
    EXPECT_EQ(ss.nextFree(), free_before);
    EXPECT_EQ(ss.busyTime(), sbusy_before);
    EXPECT_EQ(ss.sectorsTransferred(), sect_before);

    // Layer 3: the MSHR-style RequestWindow (and its group). A window
    // of 1 makes slot occupancy observable: if a zero-byte issue took a
    // slot, the third real request below would stall behind it.
    LinkTiming t;
    t.latency = 9;
    t.readBytesPerCycle = 32;
    t.writeBytesPerCycle = 32;
    timing::RequestWindow win(t, 1);
    EXPECT_EQ(win.cost(LinkDir::Read, 0), 0u); // the serial charge too
    EXPECT_EQ(win.cost(LinkDir::Write, 0), 0u);
    EXPECT_EQ(win.issue(LinkDir::Read, 0), 0u);
    EXPECT_EQ(win.issued(), 0u);
    EXPECT_EQ(win.outstanding(), 0u);
    EXPECT_EQ(win.elapsed(), 0u);
    EXPECT_EQ(win.lastStall(), 0u);
    win.issue(LinkDir::Read, 128);
    const Cycles frontier = win.elapsed();
    EXPECT_EQ(win.issue(LinkDir::Read, 0), 0u);
    EXPECT_EQ(win.elapsed(), frontier);
    EXPECT_EQ(win.issued(), 1u);

    // Through WindowGroup: a fully zero-size access charges nothing on
    // any frontier, codec-charged included.
    timing::WindowGroup group(timing::RequestWindow(t, 2),
                              timing::RequestWindow(t, 2));
    group.issue(LinkDir::Write, 128, 32);
    const Cycles combined = group.combinedElapsed();
    const timing::GroupCharge zero =
        group.issue(LinkDir::Write, 0, 0);
    EXPECT_EQ(zero.device, 0u);
    EXPECT_EQ(zero.buddy, 0u);
    EXPECT_EQ(zero.combined, 0u);
    EXPECT_EQ(zero.codecCharged, 0u);
    EXPECT_EQ(group.combinedElapsed(), combined);
}

TEST(LinkModel, WindowCostIsUnloadedLatencyPlusTransfer)
{
    // RequestWindow::cost is the serial charge the timing pass writes
    // into deviceCycles/buddyCycles: latency + ceil(bytes / B) in the
    // request's direction.
    LinkTiming t;
    t.latency = 7;
    t.readBytesPerCycle = 32;
    t.writeBytesPerCycle = 16;
    timing::RequestWindow win(t, 4);

    EXPECT_EQ(win.cost(LinkDir::Write, 128), 7u + 8u);
    EXPECT_EQ(win.cost(LinkDir::Read, 128), 7u + 4u);
    EXPECT_EQ(win.cost(LinkDir::Write, 96), 7u + 6u);
    EXPECT_EQ(win.cost(LinkDir::Read, 33), 7u + 2u); // ceil(33 / 32)
    EXPECT_EQ(win.cost(LinkDir::Read, 0), 0u);

    // A pure function of the timing: what the window has issued (here
    // enough to queue on both pipes) does not change it.
    for (unsigned i = 0; i < 4; ++i) {
        win.issue(LinkDir::Write, 128);
        win.issue(LinkDir::Read, 128);
    }
    EXPECT_EQ(win.cost(LinkDir::Write, 128), 7u + 8u);
    EXPECT_EQ(win.cost(LinkDir::Read, 128), 7u + 4u);

    // Infinite bandwidth (0 B/cycle) charges the latency alone.
    const timing::RequestWindow latency_only(LinkTiming{50, 0, 0}, 1);
    EXPECT_EQ(latency_only.cost(LinkDir::Read, 4096), 50u);
}

TEST(LinkModel, DefaultTimingsRankKindsSensibly)
{
    const LinkTiming dram = makeBackingStore("dram", KiB)->timing();
    const LinkTiming host = makeBackingStore("host-um", KiB)->timing();
    const LinkTiming remote = makeBackingStore("remote", KiB)->timing();
    const LinkTiming peer = makeBackingStore("peer", KiB)->timing();

    // Device memory is the fast end; the fabric the slow one; NVLink
    // peer sits between device memory and the host path.
    EXPECT_LT(dram.latency, peer.latency);
    EXPECT_LT(peer.latency, host.latency);
    EXPECT_LT(host.latency, remote.latency);
    EXPECT_GT(dram.readBytesPerCycle, peer.readBytesPerCycle);
    EXPECT_GT(peer.readBytesPerCycle, host.readBytesPerCycle);
    EXPECT_GT(host.readBytesPerCycle, remote.readBytesPerCycle);
}

TEST(BackingStoreTiming, StoresChargeClosedFormCycles)
{
    // dram, remote, and peer stores with explicit timing behind a
    // controller: every write, read and probe charges each link exactly
    // L + ceil(sector-rounded bytes / B) for the bytes its stored
    // payload puts on that link — raw entries' 128 B as well as
    // compressed payloads that are not a whole number of sectors.
    constexpr Cycles kLat = 40;
    constexpr u64 kRead = 32, kWrite = 8;
    constexpr std::size_t kOps = 64;
    constexpr u64 kSlot = 64; // Ratio2: two device sectors per entry
    const LinkTiming t{kLat, kRead, kWrite};

    for (const char *kind : {"dram", "remote", "peer"}) {
        BuddyConfig cfg;
        cfg.deviceBytes = 8 * MiB;
        cfg.deviceBackend = kind;
        cfg.buddyBackend = kind;
        cfg.deviceLink = t;
        cfg.buddyLink = t;
        BuddyController gpu(cfg);
        EXPECT_STREQ(gpu.deviceStore().kind(), kind);
        EXPECT_STREQ(gpu.carveOut().store().kind(), kind);

        const auto id = gpu.allocate("a", kOps * kEntryBytes,
                                     CompressionTarget::Ratio2);
        ASSERT_TRUE(id.has_value());
        const Addr va = *id;
        Rng rng(5);
        std::vector<u8> data(kOps * kEntryBytes), out(data.size());
        for (std::size_t e = 0; e < kOps; ++e)
            fillBucketEntry(rng, static_cast<unsigned>(e % kPatternBuckets),
                            data.data() + e * kEntryBytes);

        AccessBatch w, r, p;
        for (std::size_t e = 0; e < kOps; ++e) {
            w.write(va + e * kEntryBytes, data.data() + e * kEntryBytes);
            r.read(va + e * kEntryBytes, out.data() + e * kEntryBytes);
            p.probe(va + e * kEntryBytes);
        }
        std::size_t odd = 0; // payloads that end mid-sector
        u64 dev_sum = 0, bud_sum = 0;
        for (const AccessBatch *b : {&w, &r, &p}) {
            const bool write = b == &w;
            for (const SoloOp &op : executeEach(gpu, *b)) {
                const u64 stored = (u64{op.info.storedBits} + 7) / 8;
                const u64 on_dev = std::min(stored, kSlot);
                const u64 bpc = write ? kWrite : kRead;
                const auto expect = [&](u64 bytes) {
                    return bytes ? kLat + xferCycles(bytes, bpc) : 0;
                };
                const BatchSummary &s = op.summary;
                ASSERT_EQ(s.deviceCycles, expect(on_dev)) << kind;
                ASSERT_EQ(s.buddyCycles, expect(stored - on_dev)) << kind;
                odd += stored % kSectorBytes != 0;
                dev_sum += s.deviceCycles;
                bud_sum += s.buddyCycles;
            }
        }
        EXPECT_GT(odd, 0u) << kind;
        EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);
        EXPECT_EQ(gpu.stats().deviceCycles, dev_sum) << kind;
        EXPECT_EQ(gpu.stats().buddyCycles, bud_sum) << kind;
        EXPECT_GT(bud_sum, 0u) << kind; // incompressible entries spill
    }
}

TEST(BackingStoreTiming, OddLengthsChargeWholeSectors)
{
    // A compressed payload of S bytes, S not a multiple of 32, moves as
    // ceil(S / 32) whole sectors: at 8 B/cycle it costs
    // L + 4 * ceil(S / 32) cycles — for writes, reads and probes alike
    // — not L + ceil(S / 8).
    const LinkTiming t{10, 8, 8};
    BuddyConfig cfg;
    cfg.deviceBytes = 8 * MiB;
    cfg.deviceBackend = "remote";
    cfg.deviceLink = t;
    BuddyController gpu(cfg);
    const auto id =
        gpu.allocate("a", 64 * kEntryBytes, CompressionTarget::None);
    ASSERT_TRUE(id.has_value());
    const Addr va = *id;

    // Find an entry whose payload ends in the first three quarters of a
    // sector, where the two formulas differ.
    Rng rng(9);
    std::vector<u8> data(kEntryBytes);
    AccessBatch one(1);
    u64 stored = 0;
    for (unsigned tries = 0; tries < 256; ++tries) {
        fillBucketEntry(rng, 1 + tries % (kPatternBuckets - 1),
                        data.data());
        one.clear();
        one.write(va, data.data());
        gpu.execute(one);
        stored = (u64{one.result(0).storedBits} + 7) / 8;
        const u64 tail = stored % kSectorBytes;
        if (tail >= 1 && tail <= 24)
            break;
    }
    const u64 tail = stored % kSectorBytes;
    ASSERT_TRUE(tail >= 1 && tail <= 24) << "no odd-length payload";
    const Cycles whole = 10 + 4 * ((stored + kSectorBytes - 1) / kSectorBytes);
    EXPECT_NE(whole, 10 + (stored + 7) / 8);
    // One-op batches: each summary carries that op's charges.
    EXPECT_EQ(one.summary().deviceCycles, whole);
    EXPECT_EQ(one.summary().buddyCycles, 0u); // all on device

    std::vector<u8> out(kEntryBytes);
    one.clear();
    one.read(va, out.data());
    EXPECT_EQ(gpu.execute(one).deviceCycles, whole);
    one.clear();
    one.probe(va);
    EXPECT_EQ(gpu.execute(one).deviceCycles, whole);
    EXPECT_EQ(out, data);
}

TEST(BackingStoreTiming, StoreWindowsScheduleOverTheStoreTiming)
{
    // makeWindow() is the store's windowed charging mode: it schedules
    // over the store's link timing with private servers, so W = 1
    // charges the serial cost and a wider window overlaps latency.
    LinkTiming t;
    t.latency = 40;
    t.readBytesPerCycle = 32;
    t.writeBytesPerCycle = 32;
    const auto store = makeBackingStore("remote", 4 * KiB, t);
    EXPECT_EQ(store->timing().latency, 40u);

    auto serial = store->makeWindow(1);
    EXPECT_EQ(serial.issue(LinkDir::Read, kEntryBytes),
              serial.cost(LinkDir::Read, kEntryBytes));
    EXPECT_EQ(serial.cost(LinkDir::Read, kEntryBytes),
              40 + kEntryBytes / 32);
    auto windowed = store->makeWindow(8);
    for (unsigned i = 0; i < 8; ++i)
        windowed.issue(LinkDir::Read, kEntryBytes);
    EXPECT_LT(windowed.elapsed(), 8 * (40 + kEntryBytes / 32));
}

TEST(BackingStoreTiming, PeerStoreRecordsItsOrdinal)
{
    const auto wired =
        makeBackingStore("peer", 4 * KiB, LinkTiming{}, 3);
    EXPECT_EQ(wired->peerOrdinal(), 3);
    const auto unwired = makeBackingStore("peer", 4 * KiB);
    EXPECT_EQ(unwired->peerOrdinal(), -1);
    const auto dram = makeBackingStore("dram", 4 * KiB);
    EXPECT_EQ(dram->peerOrdinal(), -1);
}

/**
 * Controller-driven closed form: the cycle charge of every executed
 * operation — a one-op batch's serial totals — must be a pure function
 * of its traffic —
 *   deviceCycles = devL + ceil(deviceSectors * 32 / devB)  (if any)
 *   buddyCycles  = budL + ceil(buddySectors * 32 / budB)   (if any)
 * — for writes, reads, and probes alike, on any workload, and a
 * batch's totals must be the sum of its ops' charges.
 */
TEST(BackingStoreTiming, ControllerChargesArePureFunctionOfTraffic)
{
    constexpr Cycles kDevLat = 2, kBudLat = 50;
    constexpr u64 kDevBpc = 64, kBudBpc = 8;

    BuddyConfig cfg;
    cfg.deviceBytes = 8 * MiB;
    cfg.buddyBackend = "remote";
    cfg.deviceLink = LinkTiming{kDevLat, kDevBpc, kDevBpc};
    cfg.buddyLink = LinkTiming{kBudLat, kBudBpc, kBudBpc};
    BuddyController gpu(cfg);

    const auto id = gpu.allocate("a", 256 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id.has_value());
    const Addr va = *id;

    const std::size_t n = 512;
    Rng rng(17);
    std::vector<u8> data(n * kEntryBytes);
    for (std::size_t e = 0; e < n; ++e)
        fillBucketEntry(rng, static_cast<unsigned>(e % kPatternBuckets),
                        data.data() + e * kEntryBytes);

    const auto expectCycles = [](const AccessInfo &info, Cycles lat,
                                 u64 bpc, bool device) {
        const unsigned sectors =
            device ? info.deviceSectors : info.buddySectors;
        if (sectors == 0)
            return Cycles{0};
        const u64 bytes = static_cast<u64>(sectors) * kSectorBytes;
        return lat + (bytes + bpc - 1) / bpc;
    };

    // The whole write batch, then the same writes one op at a time (a
    // rewrite of identical data moves identical traffic).
    AccessBatch w;
    for (std::size_t e = 0; e < n; ++e)
        w.write(va + e * kEntryBytes, data.data() + e * kEntryBytes);
    gpu.execute(w);
    u64 dev_sum = 0, bud_sum = 0;
    for (const SoloOp &op : executeEach(gpu, w)) {
        const BatchSummary &s = op.summary;
        ASSERT_EQ(s.deviceCycles,
                  expectCycles(op.info, kDevLat, kDevBpc, true));
        ASSERT_EQ(s.buddyCycles,
                  expectCycles(op.info, kBudLat, kBudBpc, false));
        dev_sum += s.deviceCycles;
        bud_sum += s.buddyCycles;
    }
    EXPECT_EQ(w.summary().deviceCycles, dev_sum);
    EXPECT_EQ(w.summary().buddyCycles, bud_sum);
    EXPECT_GT(bud_sum, 0u); // the mixed set includes spilling entries

    // Probes and reads of the same entries charge identical cycles.
    AccessBatch p, r;
    std::vector<u8> out(n * kEntryBytes);
    for (std::size_t e = 0; e < n; ++e) {
        p.probe(va + e * kEntryBytes);
        r.read(va + e * kEntryBytes, out.data() + e * kEntryBytes);
    }
    const std::vector<SoloOp> probes = executeEach(gpu, p);
    const std::vector<SoloOp> reads = executeEach(gpu, r);
    for (std::size_t e = 0; e < n; ++e) {
        const BatchSummary &ps = probes[e].summary;
        const BatchSummary &rs = reads[e].summary;
        ASSERT_EQ(ps.deviceCycles, rs.deviceCycles) << "op " << e;
        ASSERT_EQ(ps.buddyCycles, rs.buddyCycles) << "op " << e;
        ASSERT_EQ(rs.deviceCycles,
                  expectCycles(reads[e].info, kDevLat, kDevBpc, true));
        ASSERT_EQ(rs.buddyCycles,
                  expectCycles(reads[e].info, kBudLat, kBudBpc, false));
    }
    EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);
}

TEST(BackingStoreTiming, EngineWiresPeerRingAndChargesPeerLinks)
{
    EngineConfig cfg;
    cfg.shards = 4;
    cfg.shard.deviceBytes = 8 * MiB;
    cfg.shard.buddyBackend = "peer";
    ShardedEngine eng(cfg);

    for (unsigned s = 0; s < eng.shardCount(); ++s) {
        EXPECT_STREQ(eng.shard(s).carveOut().store().kind(), "peer");
        EXPECT_EQ(eng.buddyPeerOf(s),
                  static_cast<int>((s + 1) % eng.shardCount()));
    }

    // Incompressible data under a 4x target spills every entry into the
    // peer carve-out, charging its NVLink-peer timing.
    std::vector<Addr> vas;
    for (std::size_t a = 0; a < 8; ++a) {
        const auto id = eng.allocate("a" + std::to_string(a), 32 * KiB,
                                     CompressionTarget::Ratio4);
        ASSERT_TRUE(id.has_value());
        const Addr base = *id;
        for (std::size_t i = 0; i < 32 * KiB / kEntryBytes; ++i)
            vas.push_back(base + i * kEntryBytes);
    }
    Rng rng(23);
    std::vector<u8> data(vas.size() * kEntryBytes);
    std::vector<u8> out(data.size());
    for (auto &b : data)
        b = static_cast<u8>(rng.below(256));

    AccessBatch plan;
    for (std::size_t i = 0; i < vas.size(); ++i)
        plan.write(vas[i], data.data() + i * kEntryBytes);
    eng.execute(plan);
    EXPECT_GT(plan.summary().buddyCycles, 0u);
    u64 buddy_cycles = plan.summary().buddyCycles;

    plan.clear();
    for (std::size_t i = 0; i < vas.size(); ++i)
        plan.read(vas[i], out.data() + i * kEntryBytes);
    eng.execute(plan);
    EXPECT_EQ(std::memcmp(out.data(), data.data(), data.size()), 0);

    // The engine's stats carry its batches' charges.
    buddy_cycles += plan.summary().buddyCycles;
    EXPECT_EQ(eng.stats().buddyCycles, buddy_cycles);
}

} // namespace
} // namespace buddy
