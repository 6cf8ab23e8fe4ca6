/**
 * @file
 * Service-mode contracts (src/service/): the isolation guarantee, run
 * reproducibility, admission control, QoS convergence, the incremental
 * trace cursor, and the engine's window-imbalance accounting.
 *
 * The heart is the isolation contract: with a deterministic scheduler
 * seed, every tenant's functional totals — traffic counters, serial
 * link cycles, and (under the engine's default merged window
 * mode) the windowed totals — must be bit-identical to replaying its
 * stream alone on a private identically-configured engine, no matter
 * how many other tenants contend for the same shards. Everything else
 * (fair shares, caps, queueing delay) is scheduling policy layered on top
 * of that guarantee.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/trace.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "workloads/patterns.h"

namespace buddy {
namespace {

constexpr std::size_t kEntries = 96; ///< per-tenant working set
constexpr u64 kBatches = 6;          ///< per-tenant stream length

EngineConfig
engineConfig(unsigned shards, WindowMode mode = WindowMode::Merged)
{
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.shard.deviceBytes = 16 * MiB;
    cfg.shard.linkWindow = 8;
    cfg.shard.windowMode = mode;
    return cfg;
}

u64
tenantSeed(std::size_t i)
{
    return engine::splitmix64(0xabcdull + i);
}

/** Two latency histograms agree on count, sum, range and percentiles. */
void
expectSameHistogram(const obs::LatencyHistogram &h,
                    const obs::LatencyHistogram &g)
{
    EXPECT_EQ(h.count(), g.count());
    EXPECT_EQ(h.sum(), g.sum());
    EXPECT_EQ(h.min(), g.min());
    EXPECT_EQ(h.max(), g.max());
    EXPECT_EQ(h.percentile(500), g.percentile(500));
    EXPECT_EQ(h.percentile(950), g.percentile(950));
    EXPECT_EQ(h.percentile(990), g.percentile(990));
}

/**
 * Run @p tenants synthetic sessions to completion on one engine.
 * @p arrivals, when given, supplies tenant i's arrival process
 * (closed-loop when absent).
 */
ServiceReport
runFleet(ShardedEngine &eng, std::size_t tenants, ServiceConfig scfg,
         u64 batches = kBatches, const std::vector<u64> &weights = {},
         const std::function<ArrivalSpec(std::size_t)> &arrivals = {})
{
    ServiceScheduler sched(eng, scfg);
    for (std::size_t i = 0; i < tenants; ++i) {
        auto session = std::make_unique<TenantSession>(
            "t" + std::to_string(i), eng, tenantSeed(i), kEntries,
            batches);
        if (arrivals)
            session->setArrivals(arrivals(i));
        sched.addSession(std::move(session),
                         weights.empty() ? 1 : weights[i]);
    }
    return sched.run();
}

/** A per-tenant fixed-seed Poisson arrival process. */
std::function<ArrivalSpec(std::size_t)>
poissonArrivals(u64 meanGapCycles)
{
    return [meanGapCycles](std::size_t i) {
        return ArrivalSpec::poisson(tenantSeed(1000 + i), meanGapCycles);
    };
}

/** Tenant @p i's stream replayed alone on a private engine. */
BatchSummary
soloTotals(const EngineConfig &cfg, std::size_t i, u64 batches = kBatches)
{
    ShardedEngine eng(cfg);
    TenantSession solo("t" + std::to_string(i), eng, tenantSeed(i),
                       kEntries, batches);
    AccessBatch plan;
    std::vector<u8> readbuf;
    BatchSummary totals;
    while (solo.next(plan, readbuf))
        totals.accumulate(eng.execute(plan));
    return totals;
}

// The isolation contract: per-tenant totals under 1, 4, and 16
// contending tenants are bit-identical to each stream replayed alone —
// including the windowed totals, since merged window mode windows each
// batch's own submission-order stream.
TEST(Service, TenantTotalsMatchSoloReplayUnderContention)
{
    const EngineConfig cfg = engineConfig(4);
    for (const std::size_t tenants : {1u, 4u, 16u}) {
        ShardedEngine eng(cfg);
        ServiceConfig scfg;
        const ServiceReport rep = runFleet(eng, tenants, scfg);
        ASSERT_EQ(rep.tenants.size(), tenants);
        EXPECT_TRUE(rep.allFinished);

        const auto engineTotals = eng.tenantTotals();
        ASSERT_EQ(engineTotals.size(), tenants); // no untagged traffic
        for (std::size_t i = 0; i < tenants; ++i) {
            const TenantReport &tr = rep.tenants[i];
            EXPECT_EQ(tr.batches, kBatches);
            EXPECT_TRUE(tr.finished);

            const BatchSummary solo = soloTotals(cfg, i);
            EXPECT_TRUE(isolationEqual(tr.totals, solo, true))
                << "tenant " << tr.name << " of " << tenants;

            // The engine's own per-tenant accounting agrees with the
            // scheduler's — two independent tallies of the same batches.
            const auto it = engineTotals.find(tr.tenant);
            ASSERT_NE(it, engineTotals.end());
            EXPECT_TRUE(it->second.summary == tr.totals);
            EXPECT_EQ(it->second.batches, tr.batches);
        }
    }
}

// Admission caps are hard limits under every policy (Fifo would pile
// onto tenant 0 without the per-tenant cap): per-tenant and global
// in-flight never exceed them, and tightening them shows up as
// queueing delay.
TEST(Service, AdmissionCapsAreEnforcedAndProduceQueueDelay)
{
    const EngineConfig cfg = engineConfig(4);
    const auto totalDelay = [](const ServiceReport &rep) {
        u64 delay = 0;
        for (const TenantReport &tr : rep.tenants)
            delay += tr.queueDelay.sum();
        return delay;
    };

    for (const SchedPolicy policy :
         {SchedPolicy::Fifo, SchedPolicy::RoundRobin,
          SchedPolicy::WeightedFair}) {
        ServiceConfig tight;
        tight.policy = policy;
        tight.maxInflightPerTenant = 1;
        tight.maxInflightTotal = 2;
        ShardedEngine engT(cfg);
        const ServiceReport t = runFleet(engT, 8, tight);
        EXPECT_EQ(t.maxGlobalInflight, 2u);
        for (const TenantReport &tr : t.tenants)
            EXPECT_EQ(tr.maxInflight, 1u) << tr.name;

        ServiceConfig loose = tight;
        loose.maxInflightPerTenant = 2;
        loose.maxInflightTotal = 16;
        ShardedEngine engL(cfg);
        const ServiceReport l = runFleet(engL, 8, loose);
        EXPECT_LE(l.maxGlobalInflight, 16u);
        for (const TenantReport &tr : l.tenants)
            EXPECT_LE(tr.maxInflight, 2u) << tr.name;

        EXPECT_EQ(t.dispatched, l.dispatched); // same total work
        // 8 closed-loop tenants into 2 slots wait longer than into 16.
        EXPECT_GT(totalDelay(t), totalDelay(l));
    }
}

// Uniform weights under round-robin: everyone finishes and service is
// near-equal (identical streams -> Jain's index of exactly 1).
TEST(Service, RoundRobinIsFairForIdenticalTenants)
{
    ShardedEngine eng(engineConfig(4));
    ServiceConfig scfg;
    const ServiceReport rep = runFleet(eng, 8, scfg);
    EXPECT_TRUE(rep.allFinished);
    EXPECT_EQ(rep.minServiceCycles, rep.maxServiceCycles);
    EXPECT_DOUBLE_EQ(rep.jainIndex, 1.0);
}

// ---------------------------------------------------------------------
// TraceCursor: the incremental stream view matches the whole-capture
// replay exactly, batch counts and totals alike.

TEST(Service, TraceCursorMatchesWholeCaptureReplay)
{
    // Record a small mixed workload.
    ShardedEngine rec(engineConfig(2));
    TraceRecorderSink sink;
    rec.attachSink(&sink);
    const auto id = rec.allocate("set", kEntries * kEntryBytes,
                                 CompressionTarget::Ratio2);
    ASSERT_TRUE(id.has_value());
    const EngineAllocation &alloc = rec.allocations().at(*id);
    sink.noteAllocation(alloc.name, alloc.va, alloc.bytes, alloc.target);

    std::vector<u8> data(kEntries * kEntryBytes);
    Rng rng(tenantSeed(0));
    for (std::size_t e = 0; e < kEntries; ++e)
        fillBucketEntry(rng, static_cast<unsigned>(e % kPatternBuckets),
                        data.data() + e * kEntryBytes);
    AccessBatch plan;
    std::vector<u8> readback(kEntries * kEntryBytes);
    for (unsigned pass = 0; pass < 2; ++pass) {
        plan.clear();
        for (std::size_t e = 0; e < kEntries; ++e) {
            if (pass == 0)
                plan.write(alloc.va + e * kEntryBytes,
                           data.data() + e * kEntryBytes);
            else
                plan.read(alloc.va + e * kEntryBytes,
                          readback.data() + e * kEntryBytes);
        }
        rec.execute(plan);
    }
    rec.detachSink(&sink);

    TraceReplayer trace;
    trace.loadImage(sink.serialize());
    ASSERT_EQ(trace.batchCount(), 2u);

    for (const unsigned repeat : {1u, 3u}) {
        // Whole-capture replay...
        ShardedEngine whole(engineConfig(2));
        const TraceTotals wholeTotals = trace.replay(whole, repeat);

        // ...vs. the cursor pulled batch-at-a-time.
        ShardedEngine inc(engineConfig(2));
        TraceCursor cursor(trace, inc, repeat);
        EXPECT_EQ(cursor.totalBatches(), 2u * repeat);
        BatchSummary totals;
        std::vector<u8> readbuf;
        u64 pulled = 0;
        while (cursor.next(plan, readbuf)) {
            totals.accumulate(inc.execute(plan));
            ++pulled;
            EXPECT_EQ(cursor.builtBatches(), pulled);
        }
        EXPECT_EQ(pulled, cursor.totalBatches());
        EXPECT_TRUE(cursor.done());
        EXPECT_FALSE(cursor.next(plan, readbuf)); // stays exhausted
        EXPECT_TRUE(totals == wholeTotals.summary);
        EXPECT_EQ(pulled, wholeTotals.batches);
    }
}

// Two cursors over the same capture coexist on one engine under
// distinct name prefixes — the per-session VA namespace trace-backed
// tenants rely on.
TEST(Service, TraceCursorNamespacesCoexist)
{
    ShardedEngine rec(engineConfig(1));
    TraceRecorderSink sink;
    rec.attachSink(&sink);
    const auto id =
        rec.allocate("w", 16 * kEntryBytes, CompressionTarget::Ratio2);
    ASSERT_TRUE(id.has_value());
    const EngineAllocation &alloc = rec.allocations().at(*id);
    sink.noteAllocation(alloc.name, alloc.va, alloc.bytes, alloc.target);
    std::vector<u8> zeros(kEntryBytes, 0);
    AccessBatch plan;
    for (unsigned e = 0; e < 16; ++e)
        plan.write(alloc.va + e * kEntryBytes, zeros.data());
    rec.execute(plan);
    rec.detachSink(&sink);

    TraceReplayer trace;
    trace.loadImage(sink.serialize());

    ShardedEngine eng(engineConfig(2));
    TraceCursor a(trace, eng, 1, "a/");
    TraceCursor b(trace, eng, 1, "b/");
    ASSERT_EQ(eng.allocations().size(), 2u);

    BatchSummary ta, tb;
    std::vector<u8> readbuf;
    while (a.next(plan, readbuf))
        ta.accumulate(eng.execute(plan));
    while (b.next(plan, readbuf))
        tb.accumulate(eng.execute(plan));
    EXPECT_TRUE(isolationEqual(ta, tb, true));
}

TEST(Service, IsolationEqualComparesCodecTime)
{
    // A slow codec changes only the codec fields; two summaries that
    // differ there are not isolation-equal.
    BatchSummary a;
    a.writes = 4;
    a.deviceSectors = 8;
    a.deviceCycles = 100;
    a.deviceWindowCycles = 60;
    a.combinedWindowCycles = 60;
    a.codecCycles = 32;
    a.codecChargedWindowCycles = 70;
    ASSERT_TRUE(isolationEqual(a, a, true));

    BatchSummary charged = a;
    charged.codecChargedWindowCycles += 1;
    EXPECT_FALSE(isolationEqual(a, charged, true));
    // The windowed fields, codec-charged included, leave the contract
    // under PerShard.
    EXPECT_TRUE(isolationEqual(a, charged, false));

    BatchSummary unloaded = a;
    unloaded.codecCycles += 1;
    EXPECT_FALSE(isolationEqual(a, unloaded, true));
    EXPECT_FALSE(isolationEqual(a, unloaded, false));
}

// ---------------------------------------------------------------------
// Window-imbalance accounting (engine side of satellite #1).

TEST(Service, WindowImbalanceAccumulatesOnlyUnderPerShardMode)
{
    // Merged mode: one window group, no per-shard spread to account.
    {
        ShardedEngine eng(engineConfig(4, WindowMode::Merged));
        ServiceConfig scfg;
        runFleet(eng, 4, scfg);
        EXPECT_EQ(eng.windowImbalance().batches, 0u);
    }

    // Per-shard mode: every completed batch lands in the stats, the
    // extrema bracket the mean, and the ratio histogram is complete.
    {
        ShardedEngine eng(engineConfig(4, WindowMode::PerShard));
        ServiceConfig scfg;
        const ServiceReport rep = runFleet(eng, 4, scfg);
        const WindowImbalanceStats im = eng.windowImbalance();
        EXPECT_EQ(im.batches, rep.dispatched);
        EXPECT_GE(im.sumMax, im.sumMin);
        EXPECT_LE(im.meanMin(), im.meanShard());
        EXPECT_LE(im.meanShard(), im.meanMax());
        EXPECT_GE(im.imbalance(), 1.0);
        EXPECT_GE(im.maxMax, im.minMin);
        u64 hist = 0;
        for (const u64 bucket : im.ratioHist)
            hist += bucket;
        EXPECT_EQ(hist, im.batches);
    }
}

// A single-allocation batch occupies one shard: its "spread" is
// exactly ratio 1.0 (bucket 0) and min == max == the shard makespan.
TEST(Service, WindowImbalanceSingleShardBatchesAreBalanced)
{
    ShardedEngine eng(engineConfig(1, WindowMode::PerShard));
    ServiceConfig scfg;
    runFleet(eng, 2, scfg);
    const WindowImbalanceStats im = eng.windowImbalance();
    ASSERT_GT(im.batches, 0u);
    EXPECT_EQ(im.sumMin, im.sumMax);
    EXPECT_DOUBLE_EQ(im.imbalance(), 1.0);
    EXPECT_EQ(im.ratioHist[0], im.batches);
}

// ---------------------------------------------------------------------
// Open-loop admission on the simulated clock.

// The isolation contract on the service clock: under closed-loop and
// Poisson arrivals alike, every tenant's functional totals match its
// solo replay bit-for-bit for all three QoS policies — admission order
// never leaks into them — and the engine's independent per-tenant
// tally agrees.
TEST(Service, ContinuousIsolationHoldsUnderEveryPolicy)
{
    const EngineConfig cfg = engineConfig(4);
    for (const auto &arrivals :
         {std::function<ArrivalSpec(std::size_t)>{},
          poissonArrivals(512)}) {
        for (const SchedPolicy policy :
             {SchedPolicy::Fifo, SchedPolicy::RoundRobin,
              SchedPolicy::WeightedFair}) {
            ShardedEngine eng(cfg);
            ServiceConfig scfg;
            scfg.policy = policy;
            const ServiceReport rep =
                runFleet(eng, 6, scfg, kBatches, {}, arrivals);
            EXPECT_TRUE(rep.allFinished);
            const auto engineTotals = eng.tenantTotals();
            for (std::size_t i = 0; i < rep.tenants.size(); ++i) {
                const TenantReport &tr = rep.tenants[i];
                EXPECT_EQ(tr.batches, kBatches);
                EXPECT_EQ(tr.dispatched, tr.batches); // every admit done
                EXPECT_TRUE(isolationEqual(tr.totals, soloTotals(cfg, i),
                                           true))
                    << "tenant " << tr.name << " under policy "
                    << static_cast<int>(policy)
                    << (arrivals ? ", poisson" : ", closed-loop");
                const auto it = engineTotals.find(tr.tenant);
                ASSERT_NE(it, engineTotals.end());
                EXPECT_TRUE(it->second.summary == tr.totals);
            }
        }
    }
}

// A fixed seed reproduces the whole run bit-for-bit, closed-loop and
// open-loop alike: the simulated clock, dispatch counts, per-tenant
// queueing-delay and service-latency histograms (counts, sums, extrema,
// and percentiles), and full per-tenant summaries (metadata hit/miss
// included — the engine is deterministic run-to-run even though it is
// not placement-invariant).
TEST(Service, ContinuousFixedSeedReproducesBitForBit)
{
    const EngineConfig cfg = engineConfig(4);
    ServiceConfig scfg;
    scfg.seed = 0x7777;
    scfg.maxInflightPerTenant = 2;
    scfg.maxInflightTotal = 6;

    for (const auto &arrivals :
         {std::function<ArrivalSpec(std::size_t)>{},
          poissonArrivals(700)}) {
        ShardedEngine engA(cfg);
        ShardedEngine engB(cfg);
        const ServiceReport a =
            runFleet(engA, 8, scfg, kBatches, {}, arrivals);
        const ServiceReport b =
            runFleet(engB, 8, scfg, kBatches, {}, arrivals);

        EXPECT_GT(a.simCycles, 0u);
        EXPECT_EQ(a.simCycles, b.simCycles);
        EXPECT_EQ(a.dispatched, b.dispatched);
        EXPECT_EQ(a.maxGlobalInflight, b.maxGlobalInflight);
        EXPECT_EQ(a.minServiceCycles, b.minServiceCycles);
        EXPECT_EQ(a.maxServiceCycles, b.maxServiceCycles);
        EXPECT_DOUBLE_EQ(a.jainIndex, b.jainIndex);
        ASSERT_EQ(a.tenants.size(), b.tenants.size());
        for (std::size_t i = 0; i < a.tenants.size(); ++i) {
            const TenantReport &x = a.tenants[i];
            const TenantReport &y = b.tenants[i];
            EXPECT_EQ(x.dispatched, y.dispatched);
            EXPECT_EQ(x.serviceCycles, y.serviceCycles);
            expectSameHistogram(x.queueDelay, y.queueDelay);
            expectSameHistogram(x.serviceLatency, y.serviceLatency);
            EXPECT_EQ(x.queueDelay.count(), x.batches);
            EXPECT_EQ(x.serviceLatency.count(), x.batches);
            EXPECT_EQ(x.serviceLatency.sum(), x.serviceCycles);
            EXPECT_TRUE(x.totals == y.totals);
        }
    }
}

// The service clock advances by each batch's
// max(combinedWindowCycles, 1), which codec time never reaches: a slow
// inline codec grows only the codec-charged totals, not the service
// clock (the gap TenantReport::serviceCycles documents).
TEST(Service, ContinuousClockIgnoresCodecTime)
{
    ServiceConfig scfg;
    scfg.seed = 0x5151;
    scfg.maxInflightPerTenant = 2;
    scfg.maxInflightTotal = 6;
    const auto run = [&](const timing::CodecTiming &codec) {
        EngineConfig cfg = engineConfig(4);
        cfg.shard.codecTiming = codec;
        ShardedEngine eng(cfg);
        return runFleet(eng, 8, scfg, kBatches, {}, poissonArrivals(700));
    };
    const ServiceReport freeRun = run(timing::CodecTiming{});
    const ServiceReport slowRun = run(timing::CodecTiming{64, 4});

    EXPECT_EQ(freeRun.simCycles, slowRun.simCycles);
    ASSERT_EQ(freeRun.tenants.size(), slowRun.tenants.size());
    for (std::size_t i = 0; i < freeRun.tenants.size(); ++i) {
        const TenantReport &f = freeRun.tenants[i];
        const TenantReport &s = slowRun.tenants[i];
        EXPECT_EQ(f.serviceCycles, s.serviceCycles);
        expectSameHistogram(f.queueDelay, s.queueDelay);
        expectSameHistogram(f.serviceLatency, s.serviceLatency);
        EXPECT_EQ(f.totals.codecChargedWindowCycles,
                  f.totals.combinedWindowCycles);
        EXPECT_GT(s.totals.codecChargedWindowCycles,
                  f.totals.codecChargedWindowCycles)
            << "tenant " << f.name;
    }
}

// Queueing delay pinned against a hand-computed timeline: one tenant,
// one slot, closed-loop arrivals. Batch k is admitted the instant
// batch k-1 completes, so its delay is the sum of the preceding
// service latencies and the clock ends at the stream's total.
TEST(Service, ContinuousQueueDelayMatchesHandComputedTimeline)
{
    const EngineConfig cfg = engineConfig(2);
    const u64 batches = 4;

    // Per-batch service cycles from a solo replay of the same stream.
    std::vector<u64> cycles;
    {
        ShardedEngine eng(cfg);
        TenantSession solo("t0", eng, tenantSeed(0), kEntries, batches);
        AccessBatch plan;
        std::vector<u8> readbuf;
        while (solo.next(plan, readbuf))
            cycles.push_back(std::max<u64>(
                eng.execute(plan).combinedWindowCycles, 1));
    }
    ASSERT_EQ(cycles.size(), batches);

    ShardedEngine eng(cfg);
    ServiceConfig scfg;
    scfg.maxInflightPerTenant = 1;
    const ServiceReport rep = runFleet(eng, 1, scfg, batches);

    u64 clock = 0, expectDelay = 0;
    for (const u64 c : cycles) {
        expectDelay += clock; // batch arrived at 0, admitted at `clock`
        clock += c;
    }
    ASSERT_EQ(rep.tenants.size(), 1u);
    EXPECT_EQ(rep.simCycles, clock);
    EXPECT_EQ(rep.tenants[0].queueDelay.sum(), expectDelay);
    EXPECT_EQ(rep.tenants[0].serviceCycles, clock);
    EXPECT_EQ(rep.tenants[0].queueDelay.count(), batches);
    EXPECT_EQ(rep.tenants[0].queueDelay.min(), 0u); // first batch
}

// Explicit arrival stamps gate admission: a batch arriving long after
// the fleet drains makes the clock jump to its arrival (idle gap, zero
// queueing delay), rather than being admitted early.
TEST(Service, ContinuousArrivalGapsIdleTheClockForward)
{
    const EngineConfig cfg = engineConfig(2);
    const u64 kFarFuture = 1ull << 40;

    ShardedEngine eng(cfg);
    ServiceConfig scfg;
    scfg.maxInflightPerTenant = 1;
    ServiceScheduler sched(eng, scfg);
    auto session = std::make_unique<TenantSession>(
        "t0", eng, tenantSeed(0), kEntries, u64{3});
    session->setArrivals(
        ArrivalSpec::stamped({100, 100, kFarFuture}));
    sched.addSession(std::move(session));
    const ServiceReport rep = sched.run();

    ASSERT_EQ(rep.tenants.size(), 1u);
    EXPECT_TRUE(rep.allFinished);
    // The last batch completes after its own far-future arrival, so
    // the open-loop makespan is dominated by the idle gap...
    EXPECT_GT(rep.simCycles, kFarFuture);
    // ...while total queueing delay stays tiny: batch 0 is admitted
    // the instant the clock jumps to its arrival (delay 0), batch 1
    // waits only for batch 0's service, and the far-future batch is
    // admitted at its own arrival (delay 0). Total delay is therefore
    // bounded by this tenant's own service time — nothing accrues a
    // gap-sized wait for sitting out the idle jump.
    EXPECT_LE(rep.tenants[0].queueDelay.sum(),
              rep.tenants[0].serviceCycles);
    EXPECT_LT(rep.tenants[0].queueDelay.sum(), kFarFuture / 2);
    EXPECT_GT(rep.tenants[0].serviceCycles, 0u);
}

// Weighted-fair converges to weight ratios: a saturated closed-loop
// fleet truncated by maxCompletions splits admissions in proportion to
// weight, and nobody starves.
TEST(Service, ContinuousWeightedFairConvergesWithoutRoundBarrier)
{
    const EngineConfig cfg = engineConfig(4);
    const std::vector<u64> weights = {1, 2, 3, 4};
    ServiceConfig scfg;
    scfg.policy = SchedPolicy::WeightedFair;
    scfg.maxInflightPerTenant = 8;
    scfg.maxInflightTotal = 10;
    scfg.maxCompletions = 100; // truncate: streams outlast it
    ShardedEngine eng(cfg);
    const ServiceReport rep =
        runFleet(eng, weights.size(), scfg, /*batches=*/200, weights);

    EXPECT_FALSE(rep.allFinished);
    u64 total = 0;
    const u64 weightSum = 10;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const TenantReport &tr = rep.tenants[i];
        EXPECT_GT(tr.dispatched, 0u) << "starved tenant " << i;
        EXPECT_EQ(tr.dispatched, tr.batches); // truncation drains
        total += tr.dispatched;
        const double expected = 100.0 *
                                static_cast<double>(weights[i]) /
                                static_cast<double>(weightSum);
        EXPECT_NEAR(static_cast<double>(tr.dispatched), expected,
                    static_cast<double>(weights[i]) + 1.0)
            << "tenant " << i;
    }
    EXPECT_EQ(total, 100u); // exactly maxCompletions admitted + drained
    EXPECT_GT(rep.weightedJainIndex, 0.95);
    EXPECT_LT(rep.jainIndex, rep.weightedJainIndex);
}

// ---------------------------------------------------------------------
// Arrival processes (TenantSession::setArrivals).

TEST(Service, ArrivalSpecsAreDeterministicAndMonotone)
{
    ShardedEngine eng(engineConfig(1));
    const u64 batches = 32;

    TenantSession a("a", eng, tenantSeed(0), 16, batches);
    TenantSession b("b", eng, tenantSeed(1), 16, batches);
    a.setArrivals(ArrivalSpec::poisson(0xfeed, 500));
    b.setArrivals(ArrivalSpec::poisson(0xfeed, 500));
    u64 prev = 0;
    bool gapped = false;
    for (u64 k = 0; k < batches; ++k) {
        EXPECT_EQ(a.arrivalCycles(k), b.arrivalCycles(k)); // same seed
        EXPECT_GE(a.arrivalCycles(k), prev); // non-decreasing
        gapped = gapped || a.arrivalCycles(k) > prev;
        prev = a.arrivalCycles(k);
    }
    EXPECT_TRUE(gapped); // the process actually spreads arrivals out

    TenantSession c("c", eng, tenantSeed(2), 16, batches);
    c.setArrivals(ArrivalSpec::bursty(4, 1000));
    for (u64 k = 0; k < batches; ++k)
        EXPECT_EQ(c.arrivalCycles(k), (k / 4) * 1000);

    TenantSession d("d", eng, tenantSeed(3), 16, u64{3});
    d.setArrivals(ArrivalSpec::stamped({5, 5, 9}));
    EXPECT_EQ(d.arrivalCycles(0), 5u);
    EXPECT_EQ(d.arrivalCycles(2), 9u);

    // No spec: closed-loop, everything ready at cycle 0.
    TenantSession e("e", eng, tenantSeed(4), 16, u64{2});
    EXPECT_EQ(e.arrivalCycles(1), 0u);
}

TEST(ServiceDeath, ArrivalSpecsFailFastOnBadInput)
{
    ShardedEngine eng(engineConfig(1));
    TenantSession s("s", eng, tenantSeed(0), 16, u64{4});
    EXPECT_DEATH(s.setArrivals(ArrivalSpec::poisson(1, 0)),
                 "nonzero mean gap");
    EXPECT_DEATH(s.setArrivals(ArrivalSpec::stamped({1, 2})),
                 "cover the whole stream");
    EXPECT_DEATH(s.setArrivals(ArrivalSpec::stamped({1, 2, 3, 2})),
                 "non-decreasing");
}

// ---------------------------------------------------------------------
// Report semantics (the bugfix pins).

// An all-idle fleet has an *undefined* fairness index, reported as 0.0
// — distinctly outside Jain's [1/n, 1] range — not as a fake 1.0.
TEST(Service, AllIdleFleetReportsUndefinedJainNotPerfect)
{
    ShardedEngine eng(engineConfig(2));
    ServiceConfig scfg;
    // Zero-batch streams: sessions exist but never produce work.
    const ServiceReport rep = runFleet(eng, 3, scfg, /*batches=*/0);
    EXPECT_TRUE(rep.allFinished);
    EXPECT_EQ(rep.dispatched, 0u);
    EXPECT_EQ(rep.maxServiceCycles, 0u);
    EXPECT_DOUBLE_EQ(rep.jainIndex, 0.0);
    EXPECT_DOUBLE_EQ(rep.weightedJainIndex, 0.0);
}

// ---------------------------------------------------------------------
// Scheduler state-machine guards.

TEST(ServiceDeath, RunIsSingleShotAndSessionsAreAddedFirst)
{
    ShardedEngine eng(engineConfig(2));
    ServiceConfig scfg;
    ServiceScheduler sched(eng, scfg);
    sched.addSession(std::make_unique<TenantSession>(
        "t0", eng, tenantSeed(0), kEntries, u64{2}));
    sched.run();
    EXPECT_DEATH(sched.run(), "single-shot");
    EXPECT_DEATH(sched.addSession(std::make_unique<TenantSession>(
                     "t1", eng, tenantSeed(1), kEntries, u64{2})),
                 "before run");
}

} // namespace
} // namespace buddy
