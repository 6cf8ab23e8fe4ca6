/**
 * @file
 * Tests of the buddy::engine subsystem: shard-merged results must be
 * bit-identical to a single BuddyController executing the same plan,
 * multi-threaded runs must be reproducible run-to-run, asynchronous
 * submission must pipeline, and a recorded trace must replay to the
 * recorder's exact totals.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <utility>

#include "core/controller.h"
#include "engine/engine.h"
#include "engine/trace.h"
#include "obs/json.h"
#include "workloads/patterns.h"

namespace buddy {
namespace {

constexpr std::size_t kAllocs = 6;
constexpr std::size_t kEntriesPerAlloc = 256;
constexpr std::size_t kN = kAllocs * kEntriesPerAlloc;

EngineConfig
engineConfig(unsigned shards, unsigned threads = 0)
{
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.threads = threads;
    cfg.shard.deviceBytes = 8 * MiB;
    return cfg;
}

BuddyConfig
singleConfig()
{
    BuddyConfig cfg;
    cfg.deviceBytes = 8 * MiB;
    return cfg;
}

/** The deterministic mixed working set all engine tests use. */
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

/**
 * Allocate the standard working set on any target with
 * allocate()/allocations() and return the per-entry VAs.
 */
template <typename Target>
std::vector<Addr>
allocateSet(Target &t)
{
    std::vector<Addr> vas;
    vas.reserve(kN);
    for (std::size_t a = 0; a < kAllocs; ++a) {
        const auto id = t.allocate("a" + std::to_string(a),
                                   kEntriesPerAlloc * kEntryBytes,
                                   CompressionTarget::Ratio2);
        EXPECT_TRUE(id.has_value());
        const Addr base = t.allocations().at(*id).va;
        for (std::size_t i = 0; i < kEntriesPerAlloc; ++i)
            vas.push_back(base + i * kEntryBytes);
    }
    return vas;
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

bool
sameSummary(const BatchSummary &a, const BatchSummary &b)
{
    return a.reads == b.reads && a.writes == b.writes &&
           a.probes == b.probes && a.deviceSectors == b.deviceSectors &&
           a.buddySectors == b.buddySectors &&
           a.metadataHits == b.metadataHits &&
           a.metadataMisses == b.metadataMisses &&
           a.buddyAccesses == b.buddyAccesses &&
           a.deviceCycles == b.deviceCycles &&
           a.buddyCycles == b.buddyCycles &&
           a.deviceWindowCycles == b.deviceWindowCycles &&
           a.buddyWindowCycles == b.buddyWindowCycles &&
           a.combinedWindowCycles == b.combinedWindowCycles &&
           a.codecCycles == b.codecCycles &&
           a.codecChargedWindowCycles == b.codecChargedWindowCycles;
}

bool
sameStats(const BuddyStats &a, const BuddyStats &b)
{
    return a.reads == b.reads && a.writes == b.writes &&
           a.deviceSectorTraffic == b.deviceSectorTraffic &&
           a.buddySectorTraffic == b.buddySectorTraffic &&
           a.buddyAccesses == b.buddyAccesses &&
           a.overflowEntries == b.overflowEntries &&
           a.deviceCycles == b.deviceCycles &&
           a.buddyCycles == b.buddyCycles &&
           a.deviceWindowCycles == b.deviceWindowCycles &&
           a.buddyWindowCycles == b.buddyWindowCycles &&
           a.combinedWindowCycles == b.combinedWindowCycles &&
           a.codecCycles == b.codecCycles &&
           a.codecChargedWindowCycles == b.codecChargedWindowCycles;
}

TEST(ShardedEngine, MergedResultsMatchSingleControllerBitForBit)
{
    // The engine and a plain controller execute the same plan; the
    // engine's global VA space mirrors the controller's (same bases,
    // same order), so plans are structurally identical. The default
    // 64 KB metadata cache holds this working set without capacity
    // evictions, so even per-op hit/miss results must match.
    ShardedEngine eng(engineConfig(4, 2));
    BuddyController single(singleConfig());

    const auto vasE = allocateSet(eng);
    const auto vasS = allocateSet(single);
    ASSERT_EQ(vasE, vasS); // identical global address layout

    const auto entries = mixedEntries(kN, 1234);

    // Writes.
    AccessBatch we, ws;
    for (std::size_t i = 0; i < kN; ++i) {
        we.write(vasE[i], entries[i].data());
        ws.write(vasS[i], entries[i].data());
    }
    eng.execute(we);
    single.execute(ws);
    ASSERT_EQ(we.results().size(), kN);
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_TRUE(sameInfo(we.result(i), ws.result(i))) << "write " << i;
    EXPECT_TRUE(sameSummary(we.summary(), ws.summary()));
    EXPECT_TRUE(sameStats(eng.stats(), single.stats()));

    // Mixed reads and probes.
    std::vector<std::vector<u8>> outE(kN), outS(kN);
    AccessBatch re, rs;
    for (std::size_t i = 0; i < kN; ++i) {
        outE[i].assign(kEntryBytes, 0xAB);
        outS[i].assign(kEntryBytes, 0xCD);
        if (i % 5 == 0) {
            re.probe(vasE[i]);
            rs.probe(vasS[i]);
        } else {
            re.read(vasE[i], outE[i].data());
            rs.read(vasS[i], outS[i].data());
        }
    }
    eng.execute(re);
    single.execute(rs);
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_TRUE(sameInfo(re.result(i), rs.result(i))) << "read " << i;
        if (i % 5 != 0) {
            ASSERT_EQ(
                std::memcmp(outE[i].data(), entries[i].data(), kEntryBytes),
                0)
                << "payload " << i;
            ASSERT_EQ(
                std::memcmp(outS[i].data(), entries[i].data(), kEntryBytes),
                0);
        }
    }
    EXPECT_TRUE(sameSummary(re.summary(), rs.summary()));
    EXPECT_TRUE(sameStats(eng.stats(), single.stats()));

    // Merged bookkeeping views agree with the single controller too.
    EXPECT_EQ(eng.deviceBytesReserved(), single.deviceBytesReserved());
    EXPECT_EQ(eng.buddyBytesReserved(), single.buddyBytesReserved());
    EXPECT_DOUBLE_EQ(eng.compressionRatio(), single.compressionRatio());
    EXPECT_EQ(eng.metadataAccesses(),
              single.metadataCache().accesses());
    EXPECT_EQ(eng.metadataMisses(), single.metadataCache().misses());
}

/**
 * Records the whole traffic event stream: every AccessEvent field, the
 * write payload copied (the pointer dies with the callback), each
 * event's batch ordinal, and every batch summary.
 */
struct EventLog : api::TrafficSink
{
    struct Event
    {
        AccessEvent ev;
        std::vector<u8> payload;
        std::size_t batch = 0;
    };
    std::vector<Event> events;
    std::vector<BatchSummary> batches;

    void
    onAccess(const AccessEvent &e) override
    {
        Event x;
        x.ev = e;
        x.ev.data = nullptr;
        if (e.data != nullptr)
            x.payload.assign(e.data, e.data + kEntryBytes);
        x.batch = batches.size();
        events.push_back(std::move(x));
    }

    void onBatch(const BatchSummary &s) override { batches.push_back(s); }
};

/** Ordinal of logEventPlan()'s tenant-tagged batch, and its tag. */
constexpr std::size_t kTaggedBatch = 3;
constexpr u32 kTag = 7;

/**
 * Drive one plan through @p t with @p log attached: fill every entry,
 * then a mixed read/write/probe batch, an empty batch, and a
 * tenant-tagged read/probe batch.
 */
template <typename Target>
void
logEventPlan(Target &t, EventLog &log)
{
    const auto vas = allocateSet(t);
    const auto entries = mixedEntries(kN, 99);
    const auto rewrites = mixedEntries(kN, 100);
    std::vector<u8> out(kN * kEntryBytes);
    t.attachSink(&log);

    AccessBatch fill;
    for (std::size_t i = 0; i < kN; ++i)
        fill.write(vas[i], entries[i].data());
    t.execute(fill);

    AccessBatch mixed;
    for (std::size_t i = 0; i < kN; ++i) {
        if (i % 5 == 0)
            mixed.probe(vas[i]);
        else if (i % 5 == 1)
            mixed.write(vas[i], rewrites[i].data());
        else
            mixed.read(vas[i], &out[i * kEntryBytes]);
    }
    t.execute(mixed);

    AccessBatch empty;
    t.execute(empty);

    AccessBatch tagged;
    tagged.setTenant(kTag);
    for (std::size_t i = 0; i < kN; i += 3) {
        if (i % 2 == 0)
            tagged.probe(vas[i]);
        else
            tagged.read(vas[i], &out[i * kEntryBytes]);
    }
    t.execute(tagged);
    t.detachSink(&log);
}

TEST(ShardedEngine, EventStreamMatchesSingleController)
{
    // The engine's sinks must see exactly the stream a single
    // controller emits for the same plan — engine-global addresses and
    // allocation ids, merged window charges, submission order — plus
    // the tenant tag. The working set fits the metadata cache, so even
    // per-op hit/miss results match at any shard count.
    EventLog want;
    {
        BuddyController single(singleConfig());
        logEventPlan(single, want);
    }
    ASSERT_EQ(want.batches.size(), kTaggedBatch + 1);

    for (const unsigned shards : {1u, 4u}) {
        ShardedEngine eng(engineConfig(shards));
        EventLog got;
        logEventPlan(eng, got);
        ASSERT_EQ(got.events.size(), want.events.size()) << shards;
        for (std::size_t i = 0; i < want.events.size(); ++i) {
            const EventLog::Event &w = want.events[i];
            const EventLog::Event &g = got.events[i];
            ASSERT_EQ(g.batch, w.batch) << shards << " event " << i;
            ASSERT_EQ(w.ev.tenant, 0u); // a controller never stamps one
            ASSERT_EQ(g.ev.tenant, g.batch == kTaggedBatch ? kTag : 0u)
                << shards << " event " << i;
            ASSERT_EQ(g.ev.kind, w.ev.kind) << shards << " event " << i;
            ASSERT_EQ(g.ev.va, w.ev.va) << shards << " event " << i;
            ASSERT_EQ(g.ev.allocId, w.ev.allocId) << shards << " event " << i;
            ASSERT_TRUE(sameInfo(g.ev.info, w.ev.info))
                << shards << " event " << i;
            ASSERT_EQ(g.payload, w.payload) << shards << " event " << i;
        }
        ASSERT_EQ(got.batches.size(), want.batches.size()) << shards;
        for (std::size_t b = 0; b < want.batches.size(); ++b)
            EXPECT_TRUE(sameSummary(got.batches[b], want.batches[b]))
                << shards << " batch " << b;
    }
}

TEST(ShardedEngine, EachBatchIsWindowedOnce)
{
    // Under Merged the shards run only the functional pass and the
    // engine windows the merged batch once: no shard holds window
    // totals or window metrics, and the results still equal a
    // standalone controller's. Under PerShard each shard windows its
    // own sub-plan.
    const auto entries = mixedEntries(kN, 77);
    const auto configure = [](BuddyConfig &cfg, WindowMode mode) {
        cfg.buddyBackend = "remote";
        cfg.linkWindow = 4;
        cfg.windowMode = mode;
    };
    const auto run = [&](auto &target, std::vector<Addr> &vas,
                         std::vector<u8> &out) {
        vas = allocateSet(target);
        AccessBatch w;
        for (std::size_t i = 0; i < kN; ++i)
            w.write(vas[i], entries[i].data());
        target.execute(w);
        AccessBatch mixed;
        for (std::size_t i = 0; i < kN; ++i) {
            if (i % 3 == 0)
                mixed.probe(vas[i]);
            else if (i % 3 == 1)
                mixed.read(vas[i], out.data() + i * kEntryBytes);
            else
                mixed.write(vas[i], entries[kN - 1 - i].data());
        }
        target.execute(mixed);
        return mixed;
    };

    BuddyConfig scfg = singleConfig();
    configure(scfg, WindowMode::Merged);
    BuddyController single(scfg);
    std::vector<Addr> vasS;
    std::vector<u8> outS(kN * kEntryBytes);
    const AccessBatch rs = run(single, vasS, outS);

    for (const WindowMode mode : {WindowMode::Merged, WindowMode::PerShard}) {
        EngineConfig ecfg = engineConfig(4, 2);
        configure(ecfg.shard, mode);
        ShardedEngine eng(ecfg);
        obs::MetricRegistry registry;
        eng.attachMetrics(registry);
        std::vector<Addr> vasE;
        std::vector<u8> outE(kN * kEntryBytes);
        const AccessBatch re = run(eng, vasE, outE);
        ASSERT_EQ(vasE, vasS);
        EXPECT_EQ(outE, outS);

        const std::string exported = obs::exportJson(registry, {});
        u64 shardCombined = 0;
        for (unsigned s = 0; s < eng.shardCount(); ++s) {
            const BuddyStats &st = eng.shard(s).stats();
            const std::string prefix = "shard/s" + std::to_string(s) + "/";
            const bool windowKeys =
                exported.find(prefix + "window_occupancy") !=
                    std::string::npos ||
                exported.find(prefix + "window_stall") !=
                    std::string::npos ||
                exported.find(prefix + "batch_combined_makespan") !=
                    std::string::npos;
            EXPECT_GT(st.writes, 0u) << "shard " << s;
            if (mode == WindowMode::Merged) {
                EXPECT_EQ(st.deviceWindowCycles, 0u) << "shard " << s;
                EXPECT_EQ(st.buddyWindowCycles, 0u) << "shard " << s;
                EXPECT_EQ(st.combinedWindowCycles, 0u) << "shard " << s;
                EXPECT_EQ(st.codecChargedWindowCycles, 0u) << "shard " << s;
                EXPECT_FALSE(windowKeys) << "shard " << s;
            } else {
                EXPECT_GT(st.combinedWindowCycles, 0u) << "shard " << s;
                EXPECT_TRUE(windowKeys) << "shard " << s;
            }
            shardCombined += st.combinedWindowCycles;
        }

        if (mode == WindowMode::Merged) {
            for (std::size_t i = 0; i < kN; ++i)
                ASSERT_TRUE(sameInfo(re.result(i), rs.result(i)))
                    << "op " << i;
            EXPECT_TRUE(sameSummary(re.summary(), rs.summary()));
            EXPECT_TRUE(sameStats(eng.stats(), single.stats()));
            EXPECT_GT(eng.stats().combinedWindowCycles, 0u);
        } else {
            // The barrier makespan is at most the shards' summed ones.
            EXPECT_GT(eng.stats().combinedWindowCycles, 0u);
            EXPECT_LE(eng.stats().combinedWindowCycles, shardCombined);
        }
    }
}

TEST(ShardedEngine, MultiThreadedRunsAreReproducibleRunToRun)
{
    // Two fresh engines, same config, three worker threads for four
    // shards: per-op results, summaries, and merged stats must be
    // identical — determinism must not depend on thread scheduling.
    const auto entries = mixedEntries(kN, 77);

    auto run = [&](ShardedEngine &eng, std::vector<AccessInfo> &infos,
                   BatchSummary &wsum, BatchSummary &rsum) {
        const auto vas = allocateSet(eng);
        std::vector<u8> out(kN * kEntryBytes);
        AccessBatch w, r;
        for (std::size_t i = 0; i < kN; ++i)
            w.write(vas[i], entries[i].data());
        wsum = eng.execute(w);
        for (std::size_t i = 0; i < kN; ++i) {
            if (i % 3 == 0)
                r.probe(vas[i]);
            else
                r.read(vas[i], out.data() + i * kEntryBytes);
        }
        rsum = eng.execute(r);
        infos = w.results();
        infos.insert(infos.end(), r.results().begin(), r.results().end());
    };

    ShardedEngine a(engineConfig(4, 3)), b(engineConfig(4, 3));
    std::vector<AccessInfo> infosA, infosB;
    BatchSummary wA, rA, wB, rB;
    run(a, infosA, wA, rA);
    run(b, infosB, wB, rB);

    ASSERT_EQ(infosA.size(), infosB.size());
    for (std::size_t i = 0; i < infosA.size(); ++i)
        ASSERT_TRUE(sameInfo(infosA[i], infosB[i])) << "op " << i;
    EXPECT_TRUE(sameSummary(wA, wB));
    EXPECT_TRUE(sameSummary(rA, rB));
    EXPECT_TRUE(sameStats(a.stats(), b.stats()));

    // The fixed shard hash places the allocation sequence identically.
    for (const auto &[id, alloc] : a.allocations())
        EXPECT_EQ(alloc.shard, b.allocations().at(id).shard);

    // Per-shard seeds are deterministic and pairwise distinct.
    for (unsigned s = 0; s < a.shardCount(); ++s) {
        EXPECT_EQ(a.shardSeed(s), b.shardSeed(s));
        for (unsigned t = s + 1; t < a.shardCount(); ++t)
            EXPECT_NE(a.shardSeed(s), a.shardSeed(t));
    }
}

TEST(ShardedEngine, AsyncSubmissionPipelinesAndMatchesSequential)
{
    // Several batches in flight at once: per-shard FIFO queues keep
    // same-entry write->read ordering correct, and the merged totals
    // must equal a sequential run of the same plans.
    const auto entries = mixedEntries(kN, 5);

    ShardedEngine eng(engineConfig(4, 2));
    const auto vas = allocateSet(eng);

    constexpr std::size_t kBatches = 8;
    const std::size_t per_batch = kN / kBatches;
    std::vector<AccessBatch> writes(kBatches), reads(kBatches);
    std::vector<u8> out(kN * kEntryBytes, 0xFF);
    for (std::size_t b = 0; b < kBatches; ++b) {
        for (std::size_t i = 0; i < per_batch; ++i) {
            const std::size_t e = b * per_batch + i;
            writes[b].write(vas[e], entries[e].data());
            reads[b].read(vas[e], out.data() + e * kEntryBytes);
        }
    }

    // Interleave submissions: each read batch chases its write batch
    // through the same shards.
    std::vector<std::future<BatchSummary>> futs;
    for (std::size_t b = 0; b < kBatches; ++b) {
        futs.push_back(eng.submit(writes[b]));
        futs.push_back(eng.submit(reads[b]));
    }
    for (auto &f : futs)
        f.get();

    for (std::size_t e = 0; e < kN; ++e)
        ASSERT_EQ(std::memcmp(out.data() + e * kEntryBytes,
                              entries[e].data(), kEntryBytes),
                  0)
            << "entry " << e;

    BuddyController single(singleConfig());
    const auto vasS = allocateSet(single);
    std::vector<u8> outS(kN * kEntryBytes);
    AccessBatch plan;
    for (std::size_t e = 0; e < kN; ++e)
        plan.write(vasS[e], entries[e].data());
    single.execute(plan);
    plan.clear();
    for (std::size_t e = 0; e < kN; ++e)
        plan.read(vasS[e], outS.data() + e * kEntryBytes);
    single.execute(plan);
    EXPECT_TRUE(sameStats(eng.stats(), single.stats()));
}

TEST(ShardedEngine, EmptyBatchCompletesImmediately)
{
    ShardedEngine eng(engineConfig(2));
    AccessBatch empty;
    EXPECT_EQ(eng.submit(empty).get().operations(), 0u);
    EXPECT_TRUE(empty.results().empty());
}

TEST(ShardedEngine, FreeReleasesCapacityOnOwningShard)
{
    ShardedEngine eng(engineConfig(2));
    const auto id =
        eng.allocate("tmp", 256 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id.has_value());
    const u64 reserved = eng.deviceBytesReserved();
    EXPECT_GT(reserved, 0u);
    eng.free(*id);
    EXPECT_EQ(eng.deviceBytesReserved(), 0u);
    EXPECT_EQ(eng.allocations().size(), 0u);
}

TEST(Trace, ReplayReproducesRecordedTotals)
{
    const auto entries = mixedEntries(kN, 99);

    // Record on a 4-shard engine.
    ShardedEngine rec(engineConfig(4, 2));
    TraceRecorderSink recorder;
    rec.attachSink(&recorder);

    std::vector<Addr> vas;
    for (std::size_t a = 0; a < kAllocs; ++a) {
        const auto id = rec.allocate("a" + std::to_string(a),
                                     kEntriesPerAlloc * kEntryBytes,
                                     CompressionTarget::Ratio2);
        ASSERT_TRUE(id.has_value());
        const EngineAllocation &ea = rec.allocations().at(*id);
        recorder.noteAllocation(ea.name, ea.va, ea.bytes, ea.target);
        for (std::size_t i = 0; i < kEntriesPerAlloc; ++i)
            vas.push_back(ea.va + i * kEntryBytes);
    }

    std::vector<u8> out(kN * kEntryBytes);
    AccessBatch w, r;
    for (std::size_t i = 0; i < kN; ++i)
        w.write(vas[i], entries[i].data());
    rec.execute(w);
    for (std::size_t i = 0; i < kN; ++i) {
        if (i % 4 == 0)
            r.probe(vas[i]);
        else
            r.read(vas[i], out.data() + i * kEntryBytes);
    }
    rec.execute(r);
    rec.detachSink(&recorder);

    EXPECT_EQ(recorder.opCount(), 2 * kN);
    EXPECT_EQ(recorder.totals().batches, 2u);
    EXPECT_EQ(recorder.totals().summary.writes, kN);

    const std::string path =
        ::testing::TempDir() + "buddy_engine_trace_test.bin";
    recorder.save(path);

    TraceReplayer replayer;
    replayer.load(path);
    EXPECT_EQ(replayer.opCount(), recorder.opCount());
    EXPECT_EQ(replayer.batchCount(), recorder.totals().batches);
    EXPECT_EQ(replayer.allocations().size(), kAllocs);
    EXPECT_TRUE(sameSummary(replayer.recordedTotals().summary,
                            recorder.totals().summary));

    // Identically-configured engine: every field reproduces, including
    // metadata hits (same per-shard access sequences).
    ShardedEngine same(engineConfig(4, 2));
    const TraceTotals replayed = replayer.replay(same);
    EXPECT_TRUE(sameSummary(replayed.summary,
                            replayer.recordedTotals().summary));
    EXPECT_EQ(replayed.batches, replayer.recordedTotals().batches);

    // Plain single controller: traffic totals are sharding-independent.
    BuddyController single(singleConfig());
    const TraceTotals direct = replayer.replay(single);
    EXPECT_EQ(direct.summary.reads,
              replayer.recordedTotals().summary.reads);
    EXPECT_EQ(direct.summary.writes,
              replayer.recordedTotals().summary.writes);
    EXPECT_EQ(direct.summary.probes,
              replayer.recordedTotals().summary.probes);
    EXPECT_EQ(direct.summary.deviceSectors,
              replayer.recordedTotals().summary.deviceSectors);
    EXPECT_EQ(direct.summary.buddySectors,
              replayer.recordedTotals().summary.buddySectors);
    EXPECT_EQ(direct.summary.buddyAccesses,
              replayer.recordedTotals().summary.buddyAccesses);

    // Replaying twice doubles the operation counts.
    BuddyController twice_target(singleConfig());
    const TraceTotals twice = replayer.replay(twice_target, 2);
    EXPECT_EQ(twice.summary.writes, 2 * kN);
    EXPECT_EQ(twice.batches, 2 * replayer.recordedTotals().batches);
}

TEST(ShardedEngine, CycleTotalsDeterministicAcrossShardingAndRuns)
{
    // Record one timed workload as a trace, then drive it into 4-shard
    // engines twice and a 1-shard engine once: per-shard cycle totals
    // must be bit-identical run-to-run, and the merged totals must
    // equal the 1-shard run — the cycle charges are pure per-operation
    // functions of the traffic, so sharding cannot change the sums.
    const auto entries = mixedEntries(kN, 321);

    EngineConfig remote4 = engineConfig(4, 2);
    remote4.shard.buddyBackend = "remote";
    EngineConfig remote1 = engineConfig(1, 1);
    remote1.shard.buddyBackend = "remote";

    // Record on a 4-shard engine.
    ShardedEngine rec(remote4);
    TraceRecorderSink recorder;
    rec.attachSink(&recorder);
    std::vector<Addr> vas;
    for (std::size_t a = 0; a < kAllocs; ++a) {
        const auto id = rec.allocate("a" + std::to_string(a),
                                     kEntriesPerAlloc * kEntryBytes,
                                     CompressionTarget::Ratio2);
        ASSERT_TRUE(id.has_value());
        const EngineAllocation &ea = rec.allocations().at(*id);
        recorder.noteAllocation(ea.name, ea.va, ea.bytes, ea.target);
        for (std::size_t i = 0; i < kEntriesPerAlloc; ++i)
            vas.push_back(ea.va + i * kEntryBytes);
    }
    AccessBatch w, r;
    std::vector<u8> out(kN * kEntryBytes);
    for (std::size_t i = 0; i < kN; ++i)
        w.write(vas[i], entries[i].data());
    rec.execute(w);
    for (std::size_t i = 0; i < kN; ++i) {
        if (i % 7 == 0)
            r.probe(vas[i]);
        else
            r.read(vas[i], out.data() + i * kEntryBytes);
    }
    rec.execute(r);
    rec.detachSink(&recorder);
    EXPECT_GT(recorder.totals().summary.deviceCycles, 0u);
    EXPECT_GT(recorder.totals().summary.buddyCycles, 0u);

    TraceReplayer replayer;
    replayer.loadImage(recorder.serialize());

    // Two fresh 4-shard runs of the same trace.
    const auto runSharded = [&](std::vector<BuddyStats> &per_shard) {
        ShardedEngine eng(remote4);
        const TraceTotals t = replayer.replay(eng);
        per_shard.clear();
        for (unsigned s = 0; s < eng.shardCount(); ++s)
            per_shard.push_back(eng.shard(s).stats());
        return t;
    };
    std::vector<BuddyStats> shardsA, shardsB;
    const TraceTotals runA = runSharded(shardsA);
    const TraceTotals runB = runSharded(shardsB);

    // Per-shard and merged cycle totals reproduce run-to-run.
    ASSERT_EQ(shardsA.size(), shardsB.size());
    for (std::size_t s = 0; s < shardsA.size(); ++s)
        EXPECT_TRUE(sameStats(shardsA[s], shardsB[s])) << "shard " << s;
    EXPECT_TRUE(sameSummary(runA.summary, runB.summary));

    // Merged 4-shard cycle totals equal the 1-shard run of the trace.
    ShardedEngine one(remote1);
    const TraceTotals single = replayer.replay(one);
    EXPECT_EQ(runA.summary.deviceCycles, single.summary.deviceCycles);
    EXPECT_EQ(runA.summary.buddyCycles, single.summary.buddyCycles);
    EXPECT_EQ(runA.summary.deviceSectors, single.summary.deviceSectors);
    EXPECT_EQ(runA.summary.buddySectors, single.summary.buddySectors);

    // And both match what was recorded.
    EXPECT_EQ(runA.summary.deviceCycles,
              recorder.totals().summary.deviceCycles);
    EXPECT_EQ(runA.summary.buddyCycles,
              recorder.totals().summary.buddyCycles);
}

TEST(ShardedEngine, WindowedTotalsShardInvariantAndReproducible)
{
    // The windowed replay runs once over the merged submission-order
    // stream at batch completion, so windowed totals — like the
    // serial cycle totals — must be reproducible run-to-run and
    // identical across 1/2/4-shard engines driving the same trace.
    const auto entries = mixedEntries(kN, 47);
    constexpr u64 kWindow = 4;

    const auto windowed = [&](unsigned shards) {
        EngineConfig cfg = engineConfig(shards, 2);
        cfg.shard.buddyBackend = "remote";
        cfg.shard.linkWindow = kWindow;
        return cfg;
    };

    // Record on a 4-shard windowed engine.
    ShardedEngine rec(windowed(4));
    TraceRecorderSink recorder;
    rec.attachSink(&recorder);
    std::vector<Addr> vas;
    for (std::size_t a = 0; a < kAllocs; ++a) {
        const auto id = rec.allocate("a" + std::to_string(a),
                                     kEntriesPerAlloc * kEntryBytes,
                                     CompressionTarget::Ratio2);
        ASSERT_TRUE(id.has_value());
        const EngineAllocation &ea = rec.allocations().at(*id);
        recorder.noteAllocation(ea.name, ea.va, ea.bytes, ea.target);
        for (std::size_t i = 0; i < kEntriesPerAlloc; ++i)
            vas.push_back(ea.va + i * kEntryBytes);
    }
    AccessBatch w, r;
    std::vector<u8> out(kN * kEntryBytes);
    for (std::size_t i = 0; i < kN; ++i)
        w.write(vas[i], entries[i].data());
    rec.execute(w);
    for (std::size_t i = 0; i < kN; ++i) {
        if (i % 7 == 0)
            r.probe(vas[i]);
        else
            r.read(vas[i], out.data() + i * kEntryBytes);
    }
    rec.execute(r);
    rec.detachSink(&recorder);

    const BatchSummary &recorded = recorder.totals().summary;
    EXPECT_GT(recorded.buddyWindowCycles, 0u);
    // The window overlaps latency: strictly cheaper than serial here.
    EXPECT_LT(recorded.windowTotalCycles(), recorded.totalCycles());

    TraceReplayer replayer;
    replayer.loadImage(recorder.serialize());

    // 1-, 2-, and 4-shard replays (4-shard twice, for run-to-run).
    const auto run = [&](unsigned shards) {
        ShardedEngine eng(windowed(shards));
        const TraceTotals t = replayer.replay(eng);
        // Engine stats report the merged-stream windowed totals.
        const BuddyStats st = eng.stats();
        EXPECT_EQ(st.deviceWindowCycles, t.summary.deviceWindowCycles);
        EXPECT_EQ(st.buddyWindowCycles, t.summary.buddyWindowCycles);
        return t;
    };
    const TraceTotals four_a = run(4);
    const TraceTotals four_b = run(4);
    const TraceTotals two = run(2);
    const TraceTotals one = run(1);

    EXPECT_TRUE(sameSummary(four_a.summary, four_b.summary));
    EXPECT_TRUE(sameSummary(four_a.summary, two.summary));
    EXPECT_TRUE(sameSummary(four_a.summary, one.summary));
    EXPECT_TRUE(sameSummary(four_a.summary, recorded));
}

TEST(ShardedEngine, PerShardWindowModeAtOneShardMatchesMergedBitForBit)
{
    // The tentpole invariant: with a single shard the per-shard window
    // mode degenerates to the merged single-GPU replay — same stream,
    // same link timing, one "GPU" — so every per-op window charge, the
    // batch summaries, and the merged stats must be bit-identical.
    const auto entries = mixedEntries(kN, 901);

    const auto config = [&](WindowMode mode) {
        EngineConfig cfg = engineConfig(1, 1);
        cfg.shard.buddyBackend = "remote";
        cfg.shard.linkWindow = 6;
        cfg.shard.windowMode = mode;
        return cfg;
    };

    ShardedEngine merged(config(WindowMode::Merged));
    ShardedEngine pershard(config(WindowMode::PerShard));
    const auto vasM = allocateSet(merged);
    const auto vasP = allocateSet(pershard);
    ASSERT_EQ(vasM, vasP);

    std::vector<u8> outM(kN * kEntryBytes), outP(kN * kEntryBytes);
    AccessBatch wm, wp, rm, rp;
    for (std::size_t i = 0; i < kN; ++i) {
        wm.write(vasM[i], entries[i].data());
        wp.write(vasP[i], entries[i].data());
    }
    merged.execute(wm);
    pershard.execute(wp);
    for (std::size_t i = 0; i < kN; ++i) {
        if (i % 6 == 0) {
            rm.probe(vasM[i]);
            rp.probe(vasP[i]);
        } else {
            rm.read(vasM[i], outM.data() + i * kEntryBytes);
            rp.read(vasP[i], outP.data() + i * kEntryBytes);
        }
    }
    merged.execute(rm);
    pershard.execute(rp);

    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_TRUE(sameInfo(wm.result(i), wp.result(i))) << "write " << i;
        ASSERT_TRUE(sameInfo(rm.result(i), rp.result(i))) << "read " << i;
    }
    EXPECT_TRUE(sameSummary(wm.summary(), wp.summary()));
    EXPECT_TRUE(sameSummary(rm.summary(), rp.summary()));
    EXPECT_TRUE(sameStats(merged.stats(), pershard.stats()));
    EXPECT_GT(merged.stats().combinedWindowCycles, 0u);
}

TEST(ShardedEngine, PerShardWindowModeBarrierAndReproducibility)
{
    // Four GPUs, each with its own MSHR pool: the batch's windowed
    // totals are the max over the shards' makespans (the cross-shard
    // barrier), so they are bounded by the merged single-GPU makespans
    // of the same plan, bracketed like every windowed total, and
    // reproducible run-to-run.
    const auto entries = mixedEntries(kN, 902);

    const auto config = [&](WindowMode mode) {
        EngineConfig cfg = engineConfig(4, 2);
        cfg.shard.buddyBackend = "remote";
        cfg.shard.linkWindow = 4;
        cfg.shard.windowMode = mode;
        return cfg;
    };

    const auto run = [&](const EngineConfig &cfg, BatchSummary &wsum,
                         BatchSummary &rsum) {
        ShardedEngine eng(cfg);
        const auto vas = allocateSet(eng);
        std::vector<u8> out(kN * kEntryBytes);
        AccessBatch w, r;
        for (std::size_t i = 0; i < kN; ++i)
            w.write(vas[i], entries[i].data());
        wsum = eng.execute(w);
        for (std::size_t i = 0; i < kN; ++i) {
            if (i % 4 == 0)
                r.probe(vas[i]);
            else
                r.read(vas[i], out.data() + i * kEntryBytes);
        }
        rsum = eng.execute(r);
        return eng.stats();
    };

    BatchSummary wA, rA, wB, rB, wM, rM;
    const BuddyStats statsA = run(config(WindowMode::PerShard), wA, rA);
    const BuddyStats statsB = run(config(WindowMode::PerShard), wB, rB);
    const BuddyStats statsM = run(config(WindowMode::Merged), wM, rM);

    // Reproducible run-to-run.
    EXPECT_TRUE(sameSummary(wA, wB));
    EXPECT_TRUE(sameSummary(rA, rB));
    EXPECT_TRUE(sameStats(statsA, statsB));

    // Engine stats mirror the per-batch summary accumulation.
    EXPECT_EQ(statsA.deviceWindowCycles,
              wA.deviceWindowCycles + rA.deviceWindowCycles);
    EXPECT_EQ(statsA.buddyWindowCycles,
              wA.buddyWindowCycles + rA.buddyWindowCycles);
    EXPECT_EQ(statsA.combinedWindowCycles,
              wA.combinedWindowCycles + rA.combinedWindowCycles);

    // Serial traffic is mode-independent; only window semantics differ.
    EXPECT_EQ(statsA.deviceCycles, statsM.deviceCycles);
    EXPECT_EQ(statsA.buddyCycles, statsM.buddyCycles);

    const std::pair<const BatchSummary *, const BatchSummary *> passes[] =
        {{&wA, &wM}, {&rA, &rM}};
    for (const auto &[psp, mgp] : passes) {
        const BatchSummary &ps = *psp;
        const BatchSummary &mg = *mgp;
        // Four GPUs each handle a quarter of the stream: the N-GPU
        // makespan cannot exceed the single merged GPU's.
        EXPECT_LE(ps.deviceWindowCycles, mg.deviceWindowCycles);
        EXPECT_LE(ps.buddyWindowCycles, mg.buddyWindowCycles);
        EXPECT_LE(ps.combinedWindowCycles, mg.combinedWindowCycles);
        EXPECT_GT(ps.combinedWindowCycles, 0u);
        // The bracket holds in per-shard mode too: the barrier max over
        // shards of max(dev, bud) lies within [max, sum] of the
        // per-link barrier maxima.
        EXPECT_GE(ps.combinedWindowCycles,
                  std::max(ps.deviceWindowCycles, ps.buddyWindowCycles));
        EXPECT_LE(ps.combinedWindowCycles,
                  ps.deviceWindowCycles + ps.buddyWindowCycles);
    }
}

TEST(ShardedEngine, ResetThenResubmitReproducesFlowTotals)
{
    // The satellite regression: clearStats() must reset every windowed
    // atomic symmetrically with the stats() merge — a missed field
    // would survive the reset and double up on the second run. Traffic
    // and cycle charges are pure per-op functions of the data, so
    // re-submitting the identical plans after a reset must reproduce
    // every flow counter exactly. (overflowEntries is a population
    // gauge, not a flow counter: rewriting identical data toggles no
    // entry, so it stays 0 after the reset and is excluded here.)
    const auto entries = mixedEntries(kN, 903);

    EngineConfig cfg = engineConfig(4, 2);
    cfg.shard.buddyBackend = "remote";
    cfg.shard.linkWindow = 5;
    cfg.shard.windowMode = WindowMode::PerShard;
    ShardedEngine eng(cfg);
    const auto vas = allocateSet(eng);

    const auto pass = [&]() {
        std::vector<u8> out(kN * kEntryBytes);
        AccessBatch w, r;
        for (std::size_t i = 0; i < kN; ++i)
            w.write(vas[i], entries[i].data());
        eng.execute(w);
        for (std::size_t i = 0; i < kN; ++i) {
            if (i % 3 == 0)
                r.probe(vas[i]);
            else
                r.read(vas[i], out.data() + i * kEntryBytes);
        }
        eng.execute(r);
        return eng.stats();
    };

    const BuddyStats first = pass();
    eng.clearStats();
    const BuddyStats cleared = eng.stats();
    EXPECT_EQ(cleared.reads, 0u);
    EXPECT_EQ(cleared.writes, 0u);
    EXPECT_EQ(cleared.deviceCycles, 0u);
    EXPECT_EQ(cleared.buddyCycles, 0u);
    EXPECT_EQ(cleared.deviceWindowCycles, 0u);
    EXPECT_EQ(cleared.buddyWindowCycles, 0u);
    EXPECT_EQ(cleared.combinedWindowCycles, 0u);

    const BuddyStats second = pass();
    EXPECT_EQ(second.reads, first.reads);
    EXPECT_EQ(second.writes, first.writes);
    EXPECT_EQ(second.deviceSectorTraffic, first.deviceSectorTraffic);
    EXPECT_EQ(second.buddySectorTraffic, first.buddySectorTraffic);
    EXPECT_EQ(second.buddyAccesses, first.buddyAccesses);
    EXPECT_EQ(second.deviceCycles, first.deviceCycles);
    EXPECT_EQ(second.buddyCycles, first.buddyCycles);
    EXPECT_EQ(second.deviceWindowCycles, first.deviceWindowCycles);
    EXPECT_EQ(second.buddyWindowCycles, first.buddyWindowCycles);
    EXPECT_EQ(second.combinedWindowCycles, first.combinedWindowCycles);
    EXPECT_GT(second.combinedWindowCycles, 0u);
}

TEST(Trace, SequentialRecordingIsByteStable)
{
    // Recording the same sequentially-submitted workload twice must
    // produce bit-identical trace files (events are replayed to engine
    // sinks in submission order, not completion order).
    const auto entries = mixedEntries(512, 13);

    auto record = [&]() {
        ShardedEngine eng(engineConfig(4, 2));
        TraceRecorderSink recorder;
        eng.attachSink(&recorder);
        const auto id = eng.allocate("a", 512 * kEntryBytes,
                                     CompressionTarget::Ratio2);
        EXPECT_TRUE(id.has_value());
        const EngineAllocation &ea = eng.allocations().at(*id);
        recorder.noteAllocation(ea.name, ea.va, ea.bytes, ea.target);
        AccessBatch w;
        for (std::size_t i = 0; i < entries.size(); ++i)
            w.write(ea.va + i * kEntryBytes, entries[i].data());
        eng.execute(w);
        return recorder.serialize();
    };

    EXPECT_EQ(record(), record());
}

TEST(Trace, PayloadlessWriteEventsAreSkippedNotFatal)
{
    // Emitters other than the controller (e.g. umsim migration
    // reports) publish Write events without a payload on the shared
    // stream; the recorder must skip them, not abort.
    TraceRecorderSink recorder;
    api::AccessEvent ev;
    ev.kind = AccessKind::Write;
    ev.va = 4 * kPageBytes;
    ev.info.buddySectors = 8;
    recorder.onAccess(ev); // data == nullptr, info.isZero == false
    EXPECT_EQ(recorder.opCount(), 0u);
    EXPECT_EQ(recorder.skippedOps(), 1u);

    // Zero writes carry no payload by design and are still recorded.
    ev.info.isZero = true;
    recorder.onAccess(ev);
    EXPECT_EQ(recorder.opCount(), 1u);
    EXPECT_EQ(recorder.skippedOps(), 1u);
}

TEST(TraceDeath, MalformedTraceFailsFast)
{
    EXPECT_DEATH(
        {
            TraceReplayer r;
            r.loadImage({'n', 'o', 'p', 'e'});
        },
        "magic");
}

} // namespace
} // namespace buddy
