/**
 * @file
 * Closed-form tests of the windowed (MSHR-style) timing replay
 * (timing/window.h):
 *
 *   - W = 1 reproduces the serial cost() charges bit-for-bit, per
 *     request and in total, on randomized mixed streams;
 *   - an effectively unbounded window converges to the bandwidth bound
 *     (transfer occupancy plus one exposed latency, exactly);
 *   - a hand-computed 3-request overlap case on a known
 *     latency/bandwidth pair;
 *   - totals are monotone in W and always bracketed by the bandwidth
 *     and serial bounds, through the raw scheduler and through
 *     BuddyController::execute (per operation and in aggregate);
 *   - zero-window and zero-bandwidth windowed configurations fail fast
 *     with a clear error instead of deadlocking (regression tests);
 *   - the eager inflight_ retirement is bit-exact against a naive
 *     full-deque reference scheduler on fuzzed mixed streams, and the
 *     tracked depth stays proportional to the outstanding concurrency
 *     instead of min(W, stream length) (memory regression);
 *   - WindowGroup's combined (cross-link) charges telescope to the max
 *     of the per-link makespans and stay bracketed by that max and the
 *     per-link sum, through the raw group and through
 *     BuddyController::execute;
 *   - the codec stage: a free CodecTiming is an exact no-op on every
 *     frontier, the pipelined admission matches a closed form, and the
 *     codec-charged makespan is bracketed by the combined makespan and
 *     combined + the summed codec latencies, monotone in the codec's
 *     initiation interval;
 *   - WindowGroup::reset() returns a used group to the state of a
 *     newly built one, observable for observable;
 *   - the timing contract: an untimed run charges no time, and
 *     windowBatch() over fresh windows then reproduces execute()'s
 *     results and summary field for field.
 */

#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "core/window_pass.h"
#include "timing/link_model.h"
#include "timing/window.h"
#include "workloads/patterns.h"

namespace buddy {
namespace {

using timing::CodecStage;
using timing::CodecTiming;
using timing::CodecWork;
using timing::GroupCharge;
using timing::LatencyBandwidthServer;
using timing::LinkDir;
using timing::LinkTiming;
using timing::RequestWindow;
using timing::WindowGroup;

/** A randomized request stream: direction + raw byte count per op. */
std::vector<std::pair<LinkDir, u64>>
randomStream(u64 seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<std::pair<LinkDir, u64>> ops;
    ops.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const LinkDir dir =
            rng.below(2) ? LinkDir::Read : LinkDir::Write;
        // Include zero-byte requests: free in both models.
        const u64 bytes = rng.below(5) == 0 ? 0 : 1 + rng.below(1024);
        ops.emplace_back(dir, bytes);
    }
    return ops;
}

TEST(RequestWindow, SerialWindowMatchesCostBitForBit)
{
    LinkTiming t;
    t.latency = 83;
    t.readBytesPerCycle = 32;
    t.writeBytesPerCycle = 16;

    for (const u64 seed : {1ull, 2ull, 3ull}) {
        RequestWindow win(t, 1);
        Cycles serial = 0;
        for (const auto &[dir, bytes] : randomStream(seed, 500)) {
            const Cycles charged = win.issue(dir, bytes);
            ASSERT_EQ(charged, win.cost(dir, bytes)) << "seed " << seed;
            serial += charged;
        }
        EXPECT_EQ(win.elapsed(), serial) << "seed " << seed;
        // The serial discipline never queues on the pipes.
        EXPECT_EQ(win.reader().queuedCycles(), 0u);
        EXPECT_EQ(win.writer().queuedCycles(), 0u);
    }
}

TEST(RequestWindow, HandComputedThreeRequestOverlap)
{
    // Three 128 B reads, latency 10, 32 B/cycle, window 2.
    //   req 1 issues at 0, transfers 0..4,  completes 14: charge 14
    //   req 2 issues at 0 (second slot), waits for the pipe, transfers
    //         4..8, completes 18: charge 4
    //   req 3 waits for req 1's slot (t=14), transfers 14..18,
    //         completes 28: charge 10
    // Windowed makespan 28 vs. 42 serial vs. 12 transfer occupancy.
    LinkTiming t;
    t.latency = 10;
    t.readBytesPerCycle = 32;
    t.writeBytesPerCycle = 32;
    RequestWindow win(t, 2);

    EXPECT_EQ(win.issue(LinkDir::Read, 128), 14u);
    EXPECT_EQ(win.issue(LinkDir::Read, 128), 4u);
    EXPECT_EQ(win.issue(LinkDir::Read, 128), 10u);
    EXPECT_EQ(win.elapsed(), 28u);
    EXPECT_EQ(win.issued(), 3u);
    EXPECT_EQ(win.reader().busyCycles(), 12u); // the bandwidth bound
    EXPECT_EQ(win.reader().queuedCycles(), 4u); // req 2 behind req 1
}

TEST(RequestWindow, UnboundedWindowConvergesToBandwidthBound)
{
    // With the window never binding, the stream is limited only by the
    // pipe: n transfers back to back plus one exposed trailing latency.
    constexpr Cycles kLat = 100;
    constexpr u64 kBpc = 32;
    constexpr std::size_t kN = 1000;

    LinkTiming t;
    t.latency = kLat;
    t.readBytesPerCycle = kBpc;
    t.writeBytesPerCycle = kBpc;
    RequestWindow win(t, u64{1} << 40);

    for (std::size_t i = 0; i < kN; ++i)
        win.issue(LinkDir::Read, 128);

    const Cycles bw_bound = kN * (128 / kBpc);
    EXPECT_EQ(win.reader().busyCycles(), bw_bound);
    EXPECT_EQ(win.elapsed(), bw_bound + kLat);
    // Serial would have paid the latency once per request.
    EXPECT_EQ(kN * (kLat + 128 / kBpc), bw_bound + kN * kLat);
}

TEST(RequestWindow, SweepIsMonotoneAndBracketed)
{
    LinkTiming t;
    t.latency = 200;
    t.readBytesPerCycle = 16;
    t.writeBytesPerCycle = 16;

    const auto stream = randomStream(99, 400);
    Cycles serial_total = 0;
    Cycles busy_bound = 0;
    Cycles prev = 0;
    bool first = true;
    for (const u64 w : {1ull, 2ull, 3ull, 4ull, 8ull, 16ull, 64ull,
                        1024ull}) {
        RequestWindow win(t, w);
        for (const auto &[dir, bytes] : stream)
            win.issue(dir, bytes);
        const Cycles elapsed = win.elapsed();
        if (first) {
            serial_total = elapsed; // W=1 is the serial bound
            first = false;
        } else {
            EXPECT_LE(elapsed, prev) << "window " << w;
        }
        // Full duplex: the pipes drain in parallel, so the bandwidth
        // bound of the stream is the busier pipe's occupancy.
        busy_bound = std::max(win.reader().busyCycles(),
                              win.writer().busyCycles());
        EXPECT_GE(elapsed, busy_bound) << "window " << w;
        EXPECT_LE(elapsed, serial_total) << "window " << w;
        prev = elapsed;
    }
    // The stream has latency to hide: a big window must beat serial.
    EXPECT_LT(prev, serial_total);
}

// ------------------------------------------ inflight-memory regression --

/**
 * The naive scheduler the eager retirement replaced: keeps the last
 * min(issued, W) completion times and pops only once size() == W. Any
 * divergence from RequestWindow — in charges, issue-dependent server
 * state, or the makespan — is a semantics regression.
 */
struct NaiveWindow
{
    NaiveWindow(const LinkTiming &t, u64 w)
        : read(t.latency, t.readBytesPerCycle),
          write(t.latency, t.writeBytesPerCycle), window(w)
    {}

    Cycles
    issue(LinkDir dir, u64 bytes)
    {
        if (bytes == 0)
            return 0;
        Cycles at = lastIssue;
        if (inflight.size() == window) {
            at = std::max(at, inflight.front());
            inflight.pop_front();
        }
        lastIssue = at;
        LatencyBandwidthServer &s =
            dir == LinkDir::Read ? read : write;
        const Cycles done = s.request(at, bytes);
        const Cycles fin = std::max(done, frontier);
        inflight.push_back(fin);
        const Cycles charged = fin - frontier;
        frontier = fin;
        return charged;
    }

    LatencyBandwidthServer read;
    LatencyBandwidthServer write;
    u64 window;
    std::deque<Cycles> inflight;
    Cycles lastIssue = 0;
    Cycles frontier = 0;
};

TEST(RequestWindow, EagerRetirementMatchesNaiveReferenceBitForBit)
{
    LinkTiming t;
    t.latency = 120;
    t.readBytesPerCycle = 32;
    t.writeBytesPerCycle = 8;

    for (const u64 seed : {11ull, 12ull, 13ull}) {
        for (const u64 w : {1ull, 2ull, 3ull, 5ull, 16ull, 64ull,
                            1ull << 20}) {
            RequestWindow win(t, w);
            NaiveWindow ref(t, w);
            for (const auto &[dir, bytes] : randomStream(seed, 800)) {
                const Cycles charged = win.issue(dir, bytes);
                ASSERT_EQ(charged, ref.issue(dir, bytes))
                    << "seed " << seed << " W " << w;
            }
            EXPECT_EQ(win.elapsed(), ref.frontier);
            // Identical issue times leave identical server state.
            EXPECT_EQ(win.reader().queuedCycles(),
                      ref.read.queuedCycles());
            EXPECT_EQ(win.writer().queuedCycles(),
                      ref.write.queuedCycles());
            EXPECT_EQ(win.reader().busyCycles(), ref.read.busyCycles());
            // Never deeper than the reference, by construction.
            EXPECT_LE(win.outstanding(), ref.inflight.size());
        }
    }
}

TEST(RequestWindow, TrackedDepthRetiresFrontierPlateausEagerly)
{
    // One huge write pushes the completion frontier far ahead; the
    // small reads that follow complete "inside" it (FCFS-clamped to
    // the frontier, zero charge). The moment the window first binds,
    // the issue clock jumps onto that frontier plateau, so every
    // plateau completion is at or before it and must retire eagerly:
    // the tracked depth collapses to the genuinely outstanding handful.
    // The naive scheduler holds exactly W = 1024 entries here forever.
    LinkTiming t;
    t.latency = 100;
    t.readBytesPerCycle = 32;
    t.writeBytesPerCycle = 1;
    constexpr u64 kW = 1024;

    RequestWindow win(t, kW);
    win.issue(LinkDir::Write, 200 * 1024); // frontier jumps far ahead
    while (win.outstanding() < kW)
        win.issue(LinkDir::Read, 128); // all clamped to the frontier
    win.issue(LinkDir::Read, 128); // first binding consults the plateau
    EXPECT_LE(win.outstanding(), 4u);
    EXPECT_EQ(win.issued(), kW + 1);
}

// ------------------------------------------------ cross-link overlap  --

TEST(WindowGroup, CombinedChargesTelescopeToMaxOfLinkMakespans)
{
    // A fast device link and a slow buddy link, scheduled as parallel
    // links: the combined makespan is the max of the two, reached by
    // telescoping per-access combined charges.
    LinkTiming dev{2, 64, 64};
    LinkTiming bud{50, 8, 8};

    for (const u64 w : {1ull, 2ull, 8ull, 64ull}) {
        WindowGroup group(RequestWindow(dev, w), RequestWindow(bud, w));
        Rng rng(500 + w);
        Cycles dev_sum = 0, bud_sum = 0, comb_sum = 0;
        for (std::size_t i = 0; i < 600; ++i) {
            const LinkDir dir =
                rng.below(2) ? LinkDir::Read : LinkDir::Write;
            // Random split, including device-only / buddy-only ops.
            const u64 dev_bytes = rng.below(3) ? 32 * rng.below(5) : 0;
            const u64 bud_bytes = rng.below(3) ? 32 * rng.below(4) : 0;
            const GroupCharge c = group.issue(dir, dev_bytes, bud_bytes);
            dev_sum += c.device;
            bud_sum += c.buddy;
            comb_sum += c.combined;
            // Per access the combined advance never exceeds the sum of
            // the per-link advances (max is 1-Lipschitz in each arg).
            ASSERT_LE(c.combined, c.device + c.buddy);
        }
        EXPECT_EQ(dev_sum, group.device().elapsed());
        EXPECT_EQ(bud_sum, group.buddy().elapsed());
        EXPECT_EQ(comb_sum, group.combinedElapsed());
        EXPECT_EQ(comb_sum, std::max(dev_sum, bud_sum));
        EXPECT_LE(comb_sum, dev_sum + bud_sum);
    }
}

TEST(WindowGroup, HandComputedCombinedFrontier)
{
    // Both links: latency 10, 32 B/cycle, W = 1 (serial). Access 1
    // moves 128 B on each link: each finishes at 14, combined 14.
    // Access 2 moves 128 B only on the buddy link: buddy finishes at
    // 28, device frontier stays 14, combined advances to 28.
    LinkTiming t{10, 32, 32};
    WindowGroup group(RequestWindow(t, 1), RequestWindow(t, 1));

    GroupCharge c = group.issue(LinkDir::Read, 128, 128);
    EXPECT_EQ(c.device, 14u);
    EXPECT_EQ(c.buddy, 14u);
    EXPECT_EQ(c.combined, 14u); // the links ran in parallel

    c = group.issue(LinkDir::Read, 0, 128);
    EXPECT_EQ(c.device, 0u);
    EXPECT_EQ(c.buddy, 14u);
    EXPECT_EQ(c.combined, 14u);
    EXPECT_EQ(group.combinedElapsed(), 28u);
    EXPECT_EQ(group.device().elapsed(), 14u);
    EXPECT_EQ(group.buddy().elapsed(), 28u);
}

// ------------------------------------------------------- codec stage --

TEST(CodecStage, FreeUnitIsAnExactNoOp)
{
    // cyclesPerEntry == 0 is the free unit: admit() is the identity on
    // availability and records nothing, whatever the pipeline depth
    // claims. This is the property that lets a zero timing reproduce
    // every pre-codec total bit-for-bit.
    CodecStage stage(CodecTiming{0, 64});
    EXPECT_TRUE(stage.timing().free());
    EXPECT_EQ(stage.timing().latency(), 0u);
    for (const Cycles avail : {0ull, 7ull, 1000ull, 3ull}) {
        EXPECT_EQ(stage.admit(avail), avail);
        EXPECT_EQ(stage.lastStall(), 0u);
    }
    EXPECT_EQ(stage.entries(), 0u);
}

TEST(CodecStage, PipelinedAdmissionMatchesClosedForm)
{
    // ii = 2, depth = 4: unloaded latency 8, one new entry every 2
    // cycles. Back-to-back admissions at avail = 0 start at 0, 2, 4 and
    // finish at 8, 10, 12; an entry arriving after the pipe drained
    // starts immediately again.
    CodecStage stage(CodecTiming{2, 4});
    EXPECT_EQ(stage.timing().latency(), 8u);
    EXPECT_EQ(stage.admit(0), 8u);
    EXPECT_EQ(stage.lastStall(), 0u);
    EXPECT_EQ(stage.admit(0), 10u);
    EXPECT_EQ(stage.lastStall(), 2u); // waited for the issue slot
    EXPECT_EQ(stage.admit(0), 12u);
    EXPECT_EQ(stage.lastStall(), 4u);
    EXPECT_EQ(stage.admit(100), 108u); // pipe idle: no stall
    EXPECT_EQ(stage.lastStall(), 0u);
    EXPECT_EQ(stage.entries(), 4u);

    // A depth below 1 behaves as 1: latency == cyclesPerEntry.
    CodecStage shallow(CodecTiming{3, 0});
    EXPECT_EQ(shallow.timing().latency(), 3u);
    EXPECT_EQ(shallow.admit(0), 3u);
}

TEST(WindowGroupCodec, FreeTimingLeavesEveryFrontierIdentical)
{
    // The same random stream through a codec-free group and through a
    // group with an explicit free codec stage fed codec work on every
    // op: all four charge fields must match op-for-op — the free unit
    // is invisible, codec work or not.
    LinkTiming dev{2, 64, 64};
    LinkTiming bud{50, 8, 8};
    WindowGroup plain(RequestWindow(dev, 4), RequestWindow(bud, 4));
    WindowGroup freed(RequestWindow(dev, 4), RequestWindow(bud, 4),
                      CodecTiming{0, 8});
    Rng rng(91);
    for (std::size_t i = 0; i < 400; ++i) {
        const LinkDir dir = rng.below(2) ? LinkDir::Read : LinkDir::Write;
        const u64 dev_bytes = rng.below(3) ? 32 * rng.below(5) : 0;
        const u64 bud_bytes = rng.below(3) ? 32 * rng.below(4) : 0;
        const CodecWork work = dir == LinkDir::Write
                                   ? CodecWork::Compress
                                   : CodecWork::Decompress;
        const GroupCharge a = plain.issue(dir, dev_bytes, bud_bytes);
        const GroupCharge b = freed.issue(dir, dev_bytes, bud_bytes, work);
        ASSERT_EQ(a.device, b.device);
        ASSERT_EQ(a.buddy, b.buddy);
        ASSERT_EQ(a.combined, b.combined);
        ASSERT_EQ(a.codecCharged, b.codecCharged);
        // With no (or free) codec work the charged frontier tracks the
        // combined one cycle-for-cycle.
        ASSERT_EQ(a.codecCharged, a.combined);
    }
    EXPECT_EQ(freed.chargedElapsed(), freed.combinedElapsed());
}

TEST(WindowGroupCodec, HandComputedCodecChargedFrontier)
{
    // Both links latency 10 at 32 B/cycle, W = 1, codec ii = 4 depth 2
    // (latency 8). Op 1: 128 B device write, compression starts at
    // submission and finishes at 8, fully hidden under the link's 14.
    // Op 2: 128 B device read, decompression waits for delivery at 28
    // and exposes its full 8 cycles. Op 3: 128 B device write at 42,
    // compression (admitted at the pipe's next slot, 32) finishes at 40
    // — hidden again.
    LinkTiming t{10, 32, 32};
    WindowGroup group(RequestWindow(t, 1), RequestWindow(t, 1),
                      CodecTiming{4, 2});

    GroupCharge c = group.issue(LinkDir::Write, 128, 0,
                                CodecWork::Compress);
    EXPECT_EQ(c.combined, 14u);
    EXPECT_EQ(c.codecCharged, 14u); // codec hidden behind the store

    c = group.issue(LinkDir::Read, 128, 0, CodecWork::Decompress);
    EXPECT_EQ(c.combined, 14u); // link frontier 28
    EXPECT_EQ(c.codecCharged, 22u); // 28 delivery + 8 decode - 14
    EXPECT_EQ(group.chargedElapsed(), 36u);

    c = group.issue(LinkDir::Write, 128, 0, CodecWork::Compress);
    EXPECT_EQ(group.combinedElapsed(), 42u);
    EXPECT_EQ(group.chargedElapsed(), 42u); // hidden again
    EXPECT_EQ(c.codecCharged, 6u);
    EXPECT_EQ(group.codec().entries(), 3u);
}

TEST(WindowGroupCodec, ChargedMakespanIsBracketedAndMonotoneInSpeed)
{
    // Sweeping the codec from free to very slow over one fixed stream:
    // the charged makespan never decreases as the unit slows, always
    // sits in [combined, combined + Σ latencies], and the link
    // frontiers never move at all (the codec is a parallel unit, not a
    // link gate).
    LinkTiming dev{2, 64, 64};
    LinkTiming bud{50, 8, 8};
    Cycles prev_charged = 0;
    Cycles baseline_combined = 0;
    for (const u64 ii : {0ull, 1ull, 2ull, 8ull, 64ull}) {
        WindowGroup group(RequestWindow(dev, 8), RequestWindow(bud, 8),
                          CodecTiming{ii, 4});
        Rng rng(137);
        for (std::size_t i = 0; i < 500; ++i) {
            const LinkDir dir =
                rng.below(2) ? LinkDir::Read : LinkDir::Write;
            const u64 dev_bytes = rng.below(3) ? 32 * rng.below(5) : 0;
            const u64 bud_bytes = rng.below(3) ? 32 * rng.below(4) : 0;
            CodecWork work = CodecWork::None;
            if (rng.below(2) && (dev_bytes > 0 || bud_bytes > 0))
                work = dir == LinkDir::Write ? CodecWork::Compress
                                             : CodecWork::Decompress;
            group.issue(dir, dev_bytes, bud_bytes, work);
        }
        if (ii == 0)
            baseline_combined = group.combinedElapsed();
        // Link and combined frontiers are codec-invariant.
        EXPECT_EQ(group.combinedElapsed(), baseline_combined);
        // Bracket and monotonicity of the charged makespan.
        EXPECT_GE(group.chargedElapsed(), group.combinedElapsed());
        EXPECT_LE(group.chargedElapsed(),
                  group.combinedElapsed() +
                      group.codec().entries() *
                          group.codec().timing().latency());
        EXPECT_GE(group.chargedElapsed(), prev_charged);
        prev_charged = group.chargedElapsed();
    }
}

// ------------------------------------------------------------- reset --

/** The first observable on which windows @p x and @p y differ, if any:
 *  frontier, counters, last stall and both pipes' counters. */
testing::AssertionResult
sameWindowState(const RequestWindow &x, const RequestWindow &y)
{
    const std::pair<const char *, std::pair<u64, u64>> fields[] = {
        {"elapsed", {x.elapsed(), y.elapsed()}},
        {"issued", {x.issued(), y.issued()}},
        {"outstanding", {x.outstanding(), y.outstanding()}},
        {"maxOutstanding", {x.maxOutstanding(), y.maxOutstanding()}},
        {"lastStall", {x.lastStall(), y.lastStall()}},
        {"reader.nextFree", {x.reader().nextFree(), y.reader().nextFree()}},
        {"reader.busy", {x.reader().busyCycles(), y.reader().busyCycles()}},
        {"reader.queued",
         {x.reader().queuedCycles(), y.reader().queuedCycles()}},
        {"reader.bytes", {x.reader().bytesServed(), y.reader().bytesServed()}},
        {"reader.requests", {x.reader().requests(), y.reader().requests()}},
        {"writer.nextFree", {x.writer().nextFree(), y.writer().nextFree()}},
        {"writer.busy", {x.writer().busyCycles(), y.writer().busyCycles()}},
        {"writer.queued",
         {x.writer().queuedCycles(), y.writer().queuedCycles()}},
        {"writer.bytes", {x.writer().bytesServed(), y.writer().bytesServed()}},
        {"writer.requests", {x.writer().requests(), y.writer().requests()}},
    };
    for (const auto &[name, v] : fields)
        if (v.first != v.second)
            return testing::AssertionFailure()
                   << name << ": " << v.first << " vs " << v.second;
    return testing::AssertionSuccess();
}

/** The first observable on which groups @p a and @p b differ, if any. */
testing::AssertionResult
sameGroupState(const WindowGroup &a, const WindowGroup &b)
{
    if (const auto r = sameWindowState(a.device(), b.device()); !r)
        return testing::AssertionFailure() << "device " << r.message();
    if (const auto r = sameWindowState(a.buddy(), b.buddy()); !r)
        return testing::AssertionFailure() << "buddy " << r.message();
    const std::pair<const char *, std::pair<u64, u64>> fields[] = {
        {"combinedElapsed", {a.combinedElapsed(), b.combinedElapsed()}},
        {"chargedElapsed", {a.chargedElapsed(), b.chargedElapsed()}},
        {"codec.entries", {a.codec().entries(), b.codec().entries()}},
        {"codec.lastStall", {a.codec().lastStall(), b.codec().lastStall()}},
    };
    for (const auto &[name, v] : fields)
        if (v.first != v.second)
            return testing::AssertionFailure()
                   << name << ": " << v.first << " vs " << v.second;
    return testing::AssertionSuccess();
}

/** One op of a seeded mixed group stream. */
struct GroupOp
{
    LinkDir dir;
    u64 device;
    u64 buddy;
    CodecWork work;
};

std::vector<GroupOp>
randomGroupStream(u64 seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<GroupOp> ops;
    ops.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const LinkDir dir = rng.below(2) ? LinkDir::Read : LinkDir::Write;
        const u64 dev_bytes = rng.below(3) ? 32 * rng.below(5) : 0;
        const u64 bud_bytes = rng.below(3) ? 32 * rng.below(4) : 0;
        CodecWork work = CodecWork::None;
        if (rng.below(3) != 0)
            work = dir == LinkDir::Write ? CodecWork::Compress
                                         : CodecWork::Decompress;
        ops.push_back({dir, dev_bytes, bud_bytes, work});
    }
    return ops;
}

TEST(WindowGroup, ResetMatchesAFreshGroup)
{
    // A group reset after one stream must be indistinguishable from a
    // newly built group: the same charges op for op and the same
    // frontiers, counters, stalls and pipe counters at every step of
    // the next stream, including before its first op. A reset() that
    // forgets any one field of the windows, their pipes, the codec
    // stage or the group's frontiers shows up as a difference here.
    const LinkTiming dev{2, 64, 64};
    const LinkTiming bud{50, 8, 8};
    const auto first = randomGroupStream(700, 500);
    const auto second = randomGroupStream(701, 500);
    for (const u64 w : {1ull, 4ull, 1ull << 20}) {
        for (const CodecTiming codec : {CodecTiming{}, CodecTiming{3, 4}}) {
            SCOPED_TRACE(testing::Message()
                         << "W " << w << ", codec ii "
                         << codec.cyclesPerEntry);
            WindowGroup reused(RequestWindow(dev, w), RequestWindow(bud, w),
                               codec);
            for (const GroupOp &op : first)
                reused.issue(op.dir, op.device, op.buddy, op.work);
            // Two compressions in a row: the second waits on the unit.
            reused.issue(LinkDir::Write, 32, 0, CodecWork::Compress);
            reused.issue(LinkDir::Write, 32, 0, CodecWork::Compress);
            // The first stream must leave state for reset() to clear.
            ASSERT_GT(reused.device().maxOutstanding(), 0u);
            ASSERT_GT(reused.buddy().reader().requests(), 0u);
            ASSERT_GT(reused.buddy().writer().requests(), 0u);
            ASSERT_EQ(reused.codec().lastStall() > 0, !codec.free());
            reused.reset();

            WindowGroup fresh(RequestWindow(dev, w), RequestWindow(bud, w),
                              codec);
            ASSERT_TRUE(sameGroupState(reused, fresh)) << "after reset()";
            for (std::size_t i = 0; i < second.size(); ++i) {
                const GroupOp &op = second[i];
                const GroupCharge a =
                    reused.issue(op.dir, op.device, op.buddy, op.work);
                const GroupCharge b =
                    fresh.issue(op.dir, op.device, op.buddy, op.work);
                ASSERT_EQ(a.device, b.device) << "op " << i;
                ASSERT_EQ(a.buddy, b.buddy) << "op " << i;
                ASSERT_EQ(a.combined, b.combined) << "op " << i;
                ASSERT_EQ(a.codecCharged, b.codecCharged) << "op " << i;
                ASSERT_TRUE(sameGroupState(reused, fresh)) << "op " << i;
            }
        }
    }
}

// --------------------------------------------------- controller-driven --

BuddyConfig
windowedConfig(u64 window)
{
    BuddyConfig cfg;
    cfg.deviceBytes = 8 * MiB;
    cfg.buddyBackend = "remote";
    cfg.deviceLink = LinkTiming{2, 64, 64};
    cfg.buddyLink = LinkTiming{50, 8, 8};
    cfg.linkWindow = window;
    return cfg;
}

/** Write+read+probe a mixed set; return the three batch summaries. */
std::vector<BatchSummary>
runMixedWorkload(BuddyController &gpu, std::size_t n)
{
    const auto id = gpu.allocate("a", n * kEntryBytes,
                                 CompressionTarget::Ratio2);
    EXPECT_TRUE(id.has_value());
    const Addr va = *id;

    Rng rng(17);
    std::vector<u8> data(n * kEntryBytes);
    for (std::size_t e = 0; e < n; ++e)
        fillBucketEntry(rng, static_cast<unsigned>(e % kPatternBuckets),
                        data.data() + e * kEntryBytes);
    std::vector<u8> out(n * kEntryBytes);

    std::vector<BatchSummary> summaries;
    AccessBatch w, r, p;
    for (std::size_t e = 0; e < n; ++e)
        w.write(va + e * kEntryBytes, data.data() + e * kEntryBytes);
    summaries.push_back(gpu.execute(w));
    for (std::size_t e = 0; e < n; ++e)
        r.read(va + e * kEntryBytes, out.data() + e * kEntryBytes);
    summaries.push_back(gpu.execute(r));
    for (std::size_t e = 0; e < n; ++e)
        p.probe(va + e * kEntryBytes);
    summaries.push_back(gpu.execute(p));
    return summaries;
}

TEST(WindowedController, WindowOneReproducesSerialTotalsBitForBit)
{
    BuddyController gpu(windowedConfig(1));
    const auto summaries = runMixedWorkload(gpu, 512);
    u64 combined_total = 0;
    for (const BatchSummary &s : summaries) {
        EXPECT_EQ(s.deviceWindowCycles, s.deviceCycles);
        EXPECT_EQ(s.buddyWindowCycles, s.buddyCycles);
        // Per batch the combined charges telescope to the max of the
        // per-link makespans — even at W = 1, where the links still
        // drain in parallel.
        EXPECT_EQ(s.combinedWindowCycles,
                  std::max(s.deviceWindowCycles, s.buddyWindowCycles));
        combined_total += s.combinedWindowCycles;
        // The codec-charged makespan brackets hold per batch, and the
        // link totals above are untouched by the (nonzero, default
        // bpc) codec timing — the codec is a parallel unit.
        EXPECT_GE(s.codecChargedWindowCycles, s.combinedWindowCycles);
        EXPECT_LE(s.codecChargedWindowCycles,
                  s.combinedWindowCycles + s.codecCycles);
    }
    EXPECT_GT(gpu.stats().buddyCycles, 0u);
    EXPECT_GT(gpu.stats().codecCycles, 0u);
    EXPECT_EQ(gpu.stats().deviceWindowCycles, gpu.stats().deviceCycles);
    EXPECT_EQ(gpu.stats().buddyWindowCycles, gpu.stats().buddyCycles);
    EXPECT_EQ(gpu.stats().combinedWindowCycles, combined_total);
}

TEST(WindowedController, OneOpBatchesReportCombinedAsLinkMax)
{
    // A one-op batch is a lone request in a fresh group, so its
    // combined makespan is exactly the max of its two serial link
    // charges.
    BuddyController gpu(windowedConfig(1));
    const auto id =
        gpu.allocate("a", 64 * kEntryBytes, CompressionTarget::Ratio4);
    ASSERT_TRUE(id.has_value());
    const Addr va = *id;
    AccessBatch one(1);
    const auto oneOp = [&]() {
        const BatchSummary s = gpu.execute(one);
        one.clear();
        return s;
    };

    Rng rng(23);
    std::vector<u8> data(kEntryBytes);
    for (auto &b : data)
        b = static_cast<u8>(rng.below(256)); // incompressible: spills
    one.write(va, data.data());
    const BatchSummary w = oneOp();
    EXPECT_GT(w.buddyCycles, 0u);
    EXPECT_EQ(w.combinedWindowCycles,
              std::max(w.deviceCycles, w.buddyCycles));
    // Incompressible data still ran the compressor (to discover it
    // doesn't fit): the unloaded latency is charged, overlapped with
    // the stores in the codec-charged figure.
    EXPECT_EQ(w.codecCycles, gpu.codecTiming().latency());
    EXPECT_EQ(w.codecChargedWindowCycles,
              std::max(w.combinedWindowCycles, w.codecCycles));

    std::vector<u8> out(kEntryBytes);
    one.read(va, out.data());
    const BatchSummary r = oneOp();
    EXPECT_EQ(r.combinedWindowCycles,
              std::max(r.deviceCycles, r.buddyCycles));
    // The entry is stored Raw, so the read bypasses the decompressor.
    EXPECT_EQ(r.codecCycles, 0u);
    EXPECT_EQ(r.codecChargedWindowCycles, r.combinedWindowCycles);
    one.probe(va);
    const BatchSummary p = oneOp();
    EXPECT_EQ(p.combinedWindowCycles,
              std::max(p.deviceCycles, p.buddyCycles));
    EXPECT_EQ(p.codecCycles, 0u);
}

TEST(WindowedController, WindowedTotalsFallBetweenBoundsAndShrink)
{
    // The same functional workload under growing windows: totals are
    // monotone nonincreasing, each link's windowed makespan is bounded
    // by its serial charges, and the aggregate stays above the transfer
    // occupancy (the bandwidth bound).
    constexpr std::size_t kN = 512;
    constexpr u64 kBudBpc = 8;

    u64 prev_total = 0;
    bool first = true;
    for (const u64 w : {1ull, 4ull, 16ull, 1ull << 30}) {
        BuddyController gpu(windowedConfig(w));
        const auto id = gpu.allocate("a", kN * kEntryBytes,
                                     CompressionTarget::Ratio2);
        ASSERT_TRUE(id.has_value());
        const Addr va = *id;

        Rng rng(17);
        std::vector<u8> data(kN * kEntryBytes);
        for (std::size_t e = 0; e < kN; ++e)
            fillBucketEntry(rng,
                            static_cast<unsigned>(e % kPatternBuckets),
                            data.data() + e * kEntryBytes);

        AccessBatch write_plan;
        for (std::size_t e = 0; e < kN; ++e)
            write_plan.write(va + e * kEntryBytes,
                             data.data() + e * kEntryBytes);
        gpu.execute(write_plan);

        AccessBatch read_plan;
        std::vector<u8> out(kN * kEntryBytes);
        for (std::size_t e = 0; e < kN; ++e)
            read_plan.read(va + e * kEntryBytes,
                           out.data() + e * kEntryBytes);
        const BatchSummary &s = gpu.execute(read_plan);

        u64 bud_occupancy = 0; // the read pass's buddy bandwidth bound
        for (const AccessInfo &i : read_plan.results())
            bud_occupancy +=
                (static_cast<u64>(i.buddySectors) * kSectorBytes +
                 kBudBpc - 1) /
                kBudBpc;
        EXPECT_LE(s.deviceWindowCycles, s.deviceCycles);
        EXPECT_LE(s.buddyWindowCycles, s.buddyCycles);
        EXPECT_GE(s.buddyWindowCycles, bud_occupancy);
        EXPECT_LE(s.windowTotalCycles(), s.totalCycles());
        // The tentpole bracket: the cross-link combined makespan is
        // exactly the max of the per-link makespans for one batch,
        // hence within [max, sum].
        EXPECT_EQ(s.combinedWindowCycles,
                  std::max(s.deviceWindowCycles, s.buddyWindowCycles));
        EXPECT_LE(s.combinedWindowCycles, s.windowTotalCycles());

        if (!first) {
            EXPECT_LE(s.windowTotalCycles(), prev_total) << "W " << w;
        }
        first = false;
        prev_total = s.windowTotalCycles();

        if (w == 1) {
            EXPECT_EQ(s.windowTotalCycles(), s.totalCycles());
        } else {
            // 50-cycle buddy latency over hundreds of spilling reads:
            // a real window must hide a measurable amount of it.
            EXPECT_LT(s.windowTotalCycles(), s.totalCycles()) << "W " << w;
        }
    }
}

/** The traffic fields of two AccessInfos (all but codecCycles) match. */
bool
sameTraffic(const AccessInfo &a, const AccessInfo &b)
{
    return a.deviceSectors == b.deviceSectors &&
           a.buddySectors == b.buddySectors &&
           a.metadataHit == b.metadataHit && a.isZero == b.isZero &&
           a.codecPass == b.codecPass && a.storedBits == b.storedBits;
}

/** True if every field the timing pass writes is 0 in @p s. */
bool
untimed(const BatchSummary &s)
{
    for (const SummaryField &f : kSummaryFields)
        if (f.timed && s.*f.member != 0)
            return false;
    return true;
}

/**
 * A fill, then reads, probes and overwrites interleaved, of the @p n
 * entries at @p va; reads land in @p out.
 */
std::vector<AccessBatch>
fillThenMix(Addr va, std::size_t n, const std::vector<u8> &data,
            std::vector<u8> &out)
{
    std::vector<AccessBatch> plans(2);
    for (std::size_t e = 0; e < n; ++e) {
        const Addr a = va + e * kEntryBytes;
        plans[0].write(a, data.data() + e * kEntryBytes);
        switch (e % 3) {
          case 0:
            plans[1].read(a, out.data() + e * kEntryBytes);
            break;
          case 1:
            plans[1].probe(a);
            break;
          default:
            plans[1].write(a, data.data() + (n - 1 - e) * kEntryBytes);
        }
    }
    return plans;
}

TEST(WindowedController, RetimingOneUntimedPassMatchesExecuteAtEveryConfig)
{
    // The timing contract: the functional pass charges no time, and
    // every cycle total is a function of the traffic it records. So one
    // untimed run, re-timed at any W and codec timing, reproduces a
    // fresh controller's execute() at that config, field for field.
    constexpr std::size_t kN = 256;
    Rng rng(41);
    std::vector<u8> data(kN * kEntryBytes);
    for (std::size_t e = 0; e < kN; ++e)
        fillBucketEntry(rng, static_cast<unsigned>(e % kPatternBuckets),
                        data.data() + e * kEntryBytes);

    // The one functional pass. Neither W nor the codec timing reaches
    // it, so any config serves.
    BuddyController plain(windowedConfig(1));
    const auto pa =
        plain.allocate("a", kN * kEntryBytes, CompressionTarget::Ratio2);
    ASSERT_TRUE(pa);
    const Addr va = *pa;
    std::vector<u8> outP(data.size());
    std::vector<AccessBatch> untimedPlans = fillThenMix(va, kN, data, outP);
    for (AccessBatch &p : untimedPlans) {
        plain.run(p, false);
        ASSERT_TRUE(untimed(p.summary()));
        for (const AccessInfo &i : p.results())
            ASSERT_EQ(i.codecCycles, 0u);
    }
    EXPECT_TRUE(untimed(plain.stats()));

    for (const u64 w : {1ull, 8ull, 32ull}) {
        for (const CodecTiming codec : {CodecTiming{}, CodecTiming{3, 4}}) {
            BuddyConfig cfg = windowedConfig(w);
            cfg.codecTiming = codec;
            BuddyController timed(cfg);
            const auto ta = timed.allocate("a", kN * kEntryBytes,
                                           CompressionTarget::Ratio2);
            ASSERT_TRUE(ta);
            ASSERT_EQ(*ta, va);
            std::vector<u8> outT(data.size());
            std::vector<AccessBatch> timedPlans =
                fillThenMix(va, kN, data, outT);

            for (std::size_t b = 0; b < timedPlans.size(); ++b) {
                const AccessBatch &t = timedPlans[b];
                const AccessBatch &p = untimedPlans[b];
                timed.execute(timedPlans[b]);

                WindowGroup windows(
                    plain.deviceStore().makeWindow(w),
                    plain.carveOut().store().makeWindow(w), codec);
                std::vector<AccessInfo> infos = p.results();
                BatchSummary sum = p.summary();
                windowBatch(p.ops(), infos, windows, sum);
                EXPECT_TRUE(sum == t.summary())
                    << "W " << w << " batch " << b;
                for (std::size_t i = 0; i < infos.size(); ++i) {
                    ASSERT_TRUE(sameTraffic(infos[i], p.result(i)));
                    ASSERT_TRUE(sameTraffic(infos[i], t.result(i)));
                    ASSERT_EQ(infos[i].codecCycles, t.result(i).codecCycles)
                        << "W " << w << " op " << i;
                }
                EXPECT_GT(sum.buddyCycles, 0u);
                EXPECT_EQ(sum.codecCycles > 0, !codec.free());
            }
            EXPECT_EQ(outP, outT);
        }
    }
}

// ------------------------------------------------- fail-fast validation --

TEST(WindowValidation, ZeroWindowFailsFast)
{
    LinkTiming t;
    t.latency = 10;
    t.readBytesPerCycle = 32;
    t.writeBytesPerCycle = 32;
    EXPECT_DEATH({ RequestWindow win(t, 0); }, "zero link window");

    BuddyConfig cfg;
    cfg.deviceBytes = 8 * MiB;
    cfg.linkWindow = 0;
    EXPECT_DEATH({ BuddyController gpu(cfg); }, "zero link window");
}

TEST(WindowValidation, ZeroBandwidthWindowedLinkFailsFast)
{
    // A non-free link with an infinite (0) pipe in either direction
    // cannot be windowed: its bandwidth bound is degenerate.
    LinkTiming latency_only;
    latency_only.latency = 50;
    EXPECT_DEATH({ RequestWindow win(latency_only, 2); },
                 "zero-bandwidth windowed link");

    BuddyConfig cfg;
    cfg.deviceBytes = 8 * MiB;
    cfg.linkWindow = 2;
    cfg.buddyLink = LinkTiming{600, 32, 0};
    EXPECT_DEATH({ BuddyController gpu(cfg); },
                 "zero-bandwidth windowed link");

    // Serial (W = 1) replays accept any timing, as before.
    RequestWindow serial(latency_only, 1);
    EXPECT_EQ(serial.issue(LinkDir::Read, 128), 50u);

    // Completely free (untimed) links may be windowed: they charge 0.
    RequestWindow free_win(LinkTiming{}, 4);
    EXPECT_EQ(free_win.issue(LinkDir::Write, 4096), 0u);
    EXPECT_EQ(free_win.elapsed(), 0u);
}

} // namespace
} // namespace buddy
