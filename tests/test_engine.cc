/**
 * @file
 * Tests of the buddy::engine subsystem: shard-merged results must be
 * bit-identical to a single BuddyController executing the same plan,
 * runs must be reproducible run-to-run, every batch must run on the
 * calling thread, and a recorded trace must replay to the recorder's
 * exact totals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <set>
#include <thread>
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
engineConfig(unsigned shards)
{
    EngineConfig cfg;
    cfg.shards = shards;
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
        const Addr base = *id;
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

/** stats() of two engines/controllers and their overflow gauges, metadata
 *  hits/misses excepted: those are per-shard cache state. */
template <typename A, typename B>
bool
sameStats(const A &x, const B &y)
{
    const BatchSummary a = x.stats();
    const BatchSummary b = y.stats();
    return a.reads == b.reads && a.writes == b.writes &&
           a.probes == b.probes && a.deviceSectors == b.deviceSectors &&
           a.buddySectors == b.buddySectors &&
           a.buddyAccesses == b.buddyAccesses &&
           x.overflowEntries() == y.overflowEntries() &&
           a.deviceCycles == b.deviceCycles &&
           a.buddyCycles == b.buddyCycles &&
           a.deviceWindowCycles == b.deviceWindowCycles &&
           a.buddyWindowCycles == b.buddyWindowCycles &&
           a.combinedWindowCycles == b.combinedWindowCycles &&
           a.codecCycles == b.codecCycles &&
           a.codecChargedWindowCycles == b.codecChargedWindowCycles;
}

/** Writes of @p plan that carry the unchanged mark. */
u64
markedWrites(const AccessBatch &plan)
{
    return static_cast<u64>(std::count_if(
        plan.ops().begin(), plan.ops().end(),
        [](const AccessRequest &op) { return op.unchanged; }));
}

/** @p plan rebuilt op by op through the public builders, which leave
 *  every unchanged mark clear. */
AccessBatch
withoutMarks(const AccessBatch &plan)
{
    AccessBatch out(plan.size());
    for (const AccessRequest &op : plan.ops()) {
        switch (op.kind) {
          case AccessKind::Read:
            out.read(op.va, op.dst);
            break;
          case AccessKind::Write:
            out.write(op.va, op.src);
            break;
          case AccessKind::Probe:
            out.probe(op.va);
            break;
        }
    }
    return out;
}

/**
 * Replay @p replayer at 1 and 4 shards of @p cfg, once and twice over,
 * each time on two fresh engines: one runs the cursor's plans, the
 * other the same plans with every mark cleared. Every op's result,
 * batch summary and read byte, and the overflow gauge, must match
 * batch by batch; a second pass marks exactly what the first did.
 * @return the marked writes of one pass.
 */
u64
expectMarksChangeNothing(const TraceReplayer &replayer,
                         EngineConfig cfg = engineConfig(1))
{
    u64 one_pass = 0;
    for (unsigned shards : {1u, 4u}) {
        for (unsigned repeat : {1u, 2u}) {
            SCOPED_TRACE("shards " + std::to_string(shards) + " repeat " +
                         std::to_string(repeat));
            cfg.shards = shards;
            ShardedEngine marked(cfg), cleared(cfg);
            TraceCursor marked_cursor(replayer, marked, repeat);
            TraceCursor cleared_cursor(replayer, cleared, repeat);
            AccessBatch plan, copy;
            std::vector<u8> marked_reads, cleared_reads;
            u64 marks = 0, differing_ops = 0;
            for (u64 b = 0; marked_cursor.next(plan, marked_reads); ++b) {
                EXPECT_TRUE(cleared_cursor.next(copy, cleared_reads));
                AccessBatch unmarked = withoutMarks(copy);
                EXPECT_EQ(markedWrites(unmarked), 0u);
                marks += markedWrites(plan);
                const BatchSummary &m = marked.execute(plan);
                const BatchSummary &c = cleared.execute(unmarked);
                EXPECT_TRUE(m == c) << "batch " << b;
                for (std::size_t i = 0; i < plan.size(); ++i)
                    if (!sameInfo(plan.result(i), unmarked.result(i)))
                        ++differing_ops;
                EXPECT_EQ(marked_reads, cleared_reads) << "batch " << b;
                EXPECT_EQ(marked.overflowEntries(),
                          cleared.overflowEntries())
                    << "batch " << b;
            }
            EXPECT_TRUE(cleared_cursor.done());
            EXPECT_EQ(differing_ops, 0u);
            EXPECT_TRUE(sameStats(marked, cleared));
            if (shards == 1 && repeat == 1)
                one_pass = marks;
            EXPECT_EQ(marks, repeat * one_pass);
        }
    }
    return one_pass;
}

TEST(ShardedEngine, MergedResultsMatchSingleControllerBitForBit)
{
    // The engine and a plain controller execute the same plan; the
    // engine's global VA space mirrors the controller's (same bases,
    // same order), so plans are structurally identical. The default
    // 64 KB metadata cache holds this working set without capacity
    // evictions, so even per-op hit/miss results must match.
    ShardedEngine eng(engineConfig(4));
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
    EXPECT_TRUE(we.summary() == ws.summary());
    EXPECT_TRUE(sameStats(eng, single));

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
    EXPECT_TRUE(re.summary() == rs.summary());
    EXPECT_TRUE(sameStats(eng, single));

    // Merged bookkeeping views agree with the single controller too.
    EXPECT_EQ(eng.deviceBytesReserved(), single.deviceBytesReserved());
    EXPECT_EQ(eng.buddyBytesReserved(), single.buddyBytesReserved());
    EXPECT_DOUBLE_EQ(eng.compressionRatio(), single.compressionRatio());
    EXPECT_EQ(eng.metadataAccesses(),
              single.metadataCache().accesses());
    EXPECT_EQ(eng.metadataMisses(), single.metadataCache().misses());
}

/**
 * Records the whole batch stream: each op's kind, address and result,
 * a write's payload copied (the batch is valid only during the call),
 * each op's batch ordinal, and every batch summary.
 */
struct EventLog : api::TrafficSink
{
    struct Event
    {
        AccessKind kind = AccessKind::Probe;
        Addr va = 0;
        AccessInfo info;
        std::vector<u8> payload;
        std::size_t batch = 0;
    };
    std::vector<Event> events;
    std::vector<BatchSummary> batches;
    std::vector<std::thread::id> threads; ///< one per batch

    void
    onBatch(const AccessBatch &batch) override
    {
        threads.push_back(std::this_thread::get_id());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const AccessRequest &op = batch.ops()[i];
            Event x;
            x.kind = op.kind;
            x.va = op.va;
            x.info = batch.result(i);
            if (op.kind == AccessKind::Write)
                x.payload.assign(op.src, op.src + kEntryBytes);
            x.batch = batches.size();
            events.push_back(std::move(x));
        }
        batches.push_back(batch.summary());
    }
};

/** Ordinal of logEventPlan()'s tenant-tagged batch, and its tag. */
constexpr std::size_t kTaggedBatch = 3;
constexpr u32 kTag = 7;

/**
 * Drive one plan through @p t and log its finished batches in @p log:
 * fill every entry, then a mixed read/write/probe batch, an empty
 * batch, and a tenant-tagged read/probe batch. An engine hands @p log
 * each batch as its attached sink; a standalone controller has no
 * sink, so its results() and summary() are logged after execute().
 */
template <typename Target>
void
logEventPlan(Target &t, EventLog &log)
{
    constexpr bool kEngine = std::is_same_v<Target, ShardedEngine>;
    const auto vas = allocateSet(t);
    const auto entries = mixedEntries(kN, 99);
    const auto rewrites = mixedEntries(kN, 100);
    std::vector<u8> out(kN * kEntryBytes);
    if constexpr (kEngine)
        t.attachSink(&log);
    const auto execute = [&](AccessBatch &batch) {
        t.execute(batch);
        if constexpr (!kEngine)
            log.onBatch(batch);
    };

    AccessBatch fill;
    for (std::size_t i = 0; i < kN; ++i)
        fill.write(vas[i], entries[i].data());
    execute(fill);

    AccessBatch mixed;
    for (std::size_t i = 0; i < kN; ++i) {
        if (i % 5 == 0)
            mixed.probe(vas[i]);
        else if (i % 5 == 1)
            mixed.write(vas[i], rewrites[i].data());
        else
            mixed.read(vas[i], &out[i * kEntryBytes]);
    }
    execute(mixed);

    AccessBatch empty;
    execute(empty);

    AccessBatch tagged;
    tagged.setTenant(kTag);
    for (std::size_t i = 0; i < kN; i += 3) {
        if (i % 2 == 0)
            tagged.probe(vas[i]);
        else
            tagged.read(vas[i], &out[i * kEntryBytes]);
    }
    execute(tagged);
    if constexpr (kEngine)
        t.detachSink(&log);
}

TEST(ShardedEngine, EventStreamMatchesSingleController)
{
    // The engine's sink must see exactly the results and summaries a
    // single controller returns for the same plan — engine-global
    // addresses, merged window charges, submission order — whatever
    // the batch's tenant tag. The working set fits the metadata cache,
    // so even per-op hit/miss results match at any shard count.
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
            ASSERT_EQ(g.kind, w.kind) << shards << " event " << i;
            ASSERT_EQ(g.va, w.va) << shards << " event " << i;
            ASSERT_TRUE(sameInfo(g.info, w.info))
                << shards << " event " << i;
            ASSERT_EQ(g.payload, w.payload) << shards << " event " << i;
        }
        ASSERT_EQ(got.batches.size(), want.batches.size()) << shards;
        for (std::size_t b = 0; b < want.batches.size(); ++b)
            EXPECT_TRUE(got.batches[b] == want.batches[b])
                << shards << " batch " << b;
    }
}

TEST(ShardedEngine, EachBatchIsWindowedOnce)
{
    // Under Merged the shards run only the functional pass and the
    // engine windows the batch once: no shard holds window totals or
    // window metrics, and the results still equal a standalone
    // controller's. Under PerShard each shard windows its own ops.
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
        w.setTenant(1);
        for (std::size_t i = 0; i < kN; ++i)
            w.write(vas[i], entries[i].data());
        target.execute(w);
        AccessBatch mixed;
        mixed.setTenant(2);
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
        EngineConfig ecfg = engineConfig(4);
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
        BatchSummary shardSum;
        for (unsigned s = 0; s < eng.shardCount(); ++s) {
            const BatchSummary &st = eng.shard(s).stats();
            shardSum.accumulate(st);
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
                for (const SummaryField &f : kSummaryFields) {
                    if (f.timed) {
                        EXPECT_EQ(st.*f.member, 0u)
                            << "shard " << s << " " << f.metric;
                    }
                }
                EXPECT_FALSE(windowKeys) << "shard " << s;
            } else {
                EXPECT_GT(st.combinedWindowCycles, 0u) << "shard " << s;
                EXPECT_TRUE(windowKeys) << "shard " << s;
            }
            shardCombined += st.combinedWindowCycles;
        }

        // stats() is the fold of the tenant totals, and its traffic
        // fields are the shards' sums.
        const BatchSummary total = eng.stats();
        BatchSummary fold;
        for (const auto &[tenant, t] : eng.tenantTotals())
            fold.accumulate(t.summary);
        EXPECT_EQ(eng.tenantTotals().size(), 2u);
        EXPECT_TRUE(total == fold);
        EXPECT_EQ(total.reads, shardSum.reads);
        EXPECT_EQ(total.writes, shardSum.writes);
        EXPECT_EQ(total.probes, shardSum.probes);
        EXPECT_EQ(total.deviceSectors, shardSum.deviceSectors);
        EXPECT_EQ(total.buddySectors, shardSum.buddySectors);
        EXPECT_EQ(total.metadataHits, shardSum.metadataHits);
        EXPECT_EQ(total.metadataMisses, shardSum.metadataMisses);
        EXPECT_EQ(total.buddyAccesses, shardSum.buddyAccesses);

        if (mode == WindowMode::Merged) {
            for (std::size_t i = 0; i < kN; ++i)
                ASSERT_TRUE(sameInfo(re.result(i), rs.result(i)))
                    << "op " << i;
            EXPECT_TRUE(re.summary() == rs.summary());
            EXPECT_TRUE(sameStats(eng, single));
            EXPECT_GT(eng.stats().combinedWindowCycles, 0u);
        } else {
            // The barrier makespan is at most the shards' summed ones.
            EXPECT_GT(eng.stats().combinedWindowCycles, 0u);
            EXPECT_LE(eng.stats().combinedWindowCycles, shardCombined);
        }

        // Each summary counter sits only in the subtree its determinism
        // contract allows and holds the matching stats() field: window
        // totals are plan-pure (sim/) only under Merged.
        const obs::MetricSnapshot snap = registry.snapshot();
        const std::string win = mode == WindowMode::Merged
                                    ? "sim/engine/"
                                    : "shard/engine/";
        const std::pair<std::string, u64> counters[] = {
            {"sim/engine/reads", total.reads},
            {"sim/engine/writes", total.writes},
            {"sim/engine/probes", total.probes},
            {"sim/engine/device_sectors", total.deviceSectors},
            {"sim/engine/buddy_sectors", total.buddySectors},
            {"shard/engine/metadata_hits", total.metadataHits},
            {"shard/engine/metadata_misses", total.metadataMisses},
            {"sim/engine/buddy_accesses", total.buddyAccesses},
            {"sim/engine/device_cycles", total.deviceCycles},
            {"sim/engine/buddy_cycles", total.buddyCycles},
            {win + "device_window_cycles", total.deviceWindowCycles},
            {win + "buddy_window_cycles", total.buddyWindowCycles},
            {win + "combined_window_cycles", total.combinedWindowCycles},
            {"sim/engine/codec_cycles", total.codecCycles},
            {win + "codec_charged_window_cycles",
             total.codecChargedWindowCycles},
        };
        for (const auto &[name, value] : counters) {
            const bool sim = name.rfind("sim/", 0) == 0;
            const std::string other = sim ? "shard/" + name.substr(4)
                                          : "sim/" + name.substr(6);
            ASSERT_EQ(snap.counters.count(name), 1u) << name;
            EXPECT_EQ(snap.counters.at(name), value) << name;
            EXPECT_EQ(snap.counters.count(other), 0u) << other;
        }

        // Each shard registers the rows its runs write: every row under
        // PerShard, and no timed row under Merged, where the shards run
        // untimed. Summed over the shards, each Plan and Cache row
        // equals the engine's counter of that name; a Window row's
        // engine value, the barrier makespan, is at most that sum. No
        // shard ran more batches than the engine did.
        const u64 batches = snap.counters.at("sim/engine/batches");
        for (unsigned s = 0; s < eng.shardCount(); ++s)
            EXPECT_LE(snap.counters.at("shard/s" + std::to_string(s) +
                                       "/batches"),
                      batches)
                << "shard " << s;
        for (const SummaryField &f : kSummaryFields) {
            SCOPED_TRACE(f.metric);
            const std::string sim = std::string("sim/engine/") + f.metric;
            const u64 engine = snap.counters.count(sim)
                                   ? snap.counters.at(sim)
                                   : snap.counters.at(
                                         std::string("shard/engine/") +
                                         f.metric);
            u64 sum = 0;
            for (unsigned s = 0; s < eng.shardCount(); ++s) {
                const std::string name =
                    "shard/s" + std::to_string(s) + "/" + f.metric;
                const bool registered = snap.counters.count(name) != 0;
                EXPECT_EQ(registered,
                          mode == WindowMode::PerShard || !f.timed)
                    << name;
                if (registered)
                    sum += snap.counters.at(name);
            }
            if (mode == WindowMode::Merged && f.timed)
                continue;
            if (f.kind == SummaryFieldKind::Window) {
                EXPECT_LE(engine, sum);
            } else {
                EXPECT_EQ(engine, sum);
            }
        }
    }
}

/** Records every BatchRecord and the thread it arrives on. */
struct BatchLog : obs::BatchObserver
{
    std::vector<obs::BatchRecord> records;
    std::vector<std::thread::id> threads;

    void
    onBatchComplete(const obs::BatchRecord &r) override
    {
        records.push_back(r);
        threads.push_back(std::this_thread::get_id());
    }
};

TEST(ShardedEngine, EmptyBatchIsAccountedLikeAnyOther)
{
    // An empty plan is a batch like any other: it takes the next
    // sequence number, and the observer, the sink, the tenant totals
    // and the batch counter all see it. Sequence numbers stay
    // gap-free.
    const auto entries = mixedEntries(kN, 5);
    for (const WindowMode mode : {WindowMode::Merged, WindowMode::PerShard}) {
        for (const unsigned shards : {1u, 4u}) {
            SCOPED_TRACE(testing::Message() << shards << " shards, mode "
                                            << static_cast<int>(mode));
            EngineConfig cfg = engineConfig(shards);
            cfg.shard.windowMode = mode;
            ShardedEngine eng(cfg);
            obs::MetricRegistry registry;
            eng.attachMetrics(registry);
            BatchLog observer;
            eng.setBatchObserver(&observer);
            EventLog sink;
            eng.attachSink(&sink);
            const auto vas = allocateSet(eng);

            AccessBatch first, empty, last;
            for (std::size_t i = 0; i < kN; i += 2)
                first.write(vas[i], entries[i].data());
            for (std::size_t i = 1; i < kN; i += 2)
                last.write(vas[i], entries[i].data());
            eng.execute(first);
            EXPECT_EQ(eng.execute(empty).operations(), 0u);
            EXPECT_TRUE(empty.results().empty());
            eng.execute(last);
            eng.detachSink(&sink);

            ASSERT_EQ(observer.records.size(), 3u);
            for (u64 b = 0; b < 3; ++b)
                EXPECT_EQ(observer.records[b].seq, b);
            EXPECT_TRUE(observer.records[1].shards.empty());
            EXPECT_TRUE(observer.records[1].summary == BatchSummary{});
            EXPECT_EQ(sink.batches.size(), 3u);
            EXPECT_EQ(sink.events.size(), kN);
            EXPECT_EQ(eng.tenantTotals().at(0).batches, 3u);
            EXPECT_EQ(registry.counter("sim/engine/batches").value(), 3u);
            EXPECT_EQ(eng.stats().writes, kN);
        }
    }
}

TEST(ShardedEngine, ThreadsFieldIsInert)
{
    // EngineConfig::threads selects nothing: every batch
    // runs on the calling thread, so the observer and the sinks run
    // here and submit() hands back a future that is already ready.
    // Fresh engines that differ only in the field (4 is what the
    // perfbench harness sets) produce bit-identical per-op results,
    // summaries and sink events, and place allocations and derive
    // shard seeds identically.
    struct Run
    {
        std::vector<AccessInfo> infos;
        std::vector<BatchSummary> sums;
        EventLog events;
        BatchLog observer;
        std::vector<unsigned> placement;
        std::vector<u64> seeds;
    };
    const auto entries = mixedEntries(kN, 31);
    const auto drive = [&](unsigned threads, Run &run) {
        EngineConfig cfg = engineConfig(4);
        cfg.threads = threads;
        ShardedEngine eng(cfg);
        eng.setBatchObserver(&run.observer);
        const auto vas = allocateSet(eng);
        eng.attachSink(&run.events);
        std::vector<u8> out(kN * kEntryBytes);
        AccessBatch w, r, p;
        for (std::size_t i = 0; i < kN; ++i)
            w.write(vas[i], entries[i].data());
        for (std::size_t i = 0; i < kN; ++i) {
            if (i % 4 == 0)
                r.probe(vas[i]);
            else
                r.read(vas[i], out.data() + i * kEntryBytes);
        }
        for (std::size_t i = 0; i < kN; i += 2)
            p.probe(vas[i]);
        for (AccessBatch *b : {&w, &r, &p}) {
            std::future<BatchSummary> fut = eng.submit(*b);
            EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready)
                << threads;
            run.sums.push_back(fut.get());
            run.infos.insert(run.infos.end(), b->results().begin(),
                             b->results().end());
        }
        eng.detachSink(&run.events);
        for (const auto &[base, a] : eng.allocations())
            run.placement.push_back(a.shard);
        for (unsigned s = 0; s < eng.shardCount(); ++s)
            run.seeds.push_back(eng.shardSeed(s));
    };
    const unsigned kThreads[] = {0, 1, 4};
    Run runs[3];
    for (std::size_t k = 0; k < 3; ++k)
        drive(kThreads[k], runs[k]);

    for (const Run &run : runs) {
        ASSERT_EQ(run.observer.threads.size(), 3u);
        for (const std::thread::id id : run.observer.threads)
            EXPECT_EQ(id, std::this_thread::get_id());
        ASSERT_EQ(run.events.threads.size(), 3u);
        for (const std::thread::id id : run.events.threads)
            ASSERT_EQ(id, std::this_thread::get_id());
    }

    // Per-shard seeds are pairwise distinct.
    for (std::size_t s = 0; s < runs[0].seeds.size(); ++s)
        for (std::size_t t = s + 1; t < runs[0].seeds.size(); ++t)
            EXPECT_NE(runs[0].seeds[s], runs[0].seeds[t]);

    const Run &ref = runs[0];
    for (std::size_t k = 1; k < 3; ++k) {
        const Run &run = runs[k];
        const unsigned threads = kThreads[k];
        EXPECT_EQ(run.placement, ref.placement) << threads;
        EXPECT_EQ(run.seeds, ref.seeds) << threads;
        ASSERT_EQ(run.infos.size(), ref.infos.size()) << threads;
        for (std::size_t i = 0; i < ref.infos.size(); ++i)
            ASSERT_TRUE(sameInfo(run.infos[i], ref.infos[i]))
                << threads << " op " << i;
        ASSERT_EQ(run.sums.size(), ref.sums.size()) << threads;
        for (std::size_t b = 0; b < ref.sums.size(); ++b)
            EXPECT_TRUE(run.sums[b] == ref.sums[b])
                << threads << " batch " << b;

        ASSERT_EQ(run.events.events.size(), ref.events.events.size())
            << threads;
        for (std::size_t i = 0; i < ref.events.events.size(); ++i) {
            const EventLog::Event &x = run.events.events[i];
            const EventLog::Event &y = ref.events.events[i];
            ASSERT_EQ(x.batch, y.batch) << threads << " event " << i;
            ASSERT_EQ(x.kind, y.kind) << threads << " event " << i;
            ASSERT_EQ(x.va, y.va) << threads << " event " << i;
            ASSERT_TRUE(sameInfo(x.info, y.info))
                << threads << " event " << i;
            ASSERT_EQ(x.payload, y.payload) << threads << " event " << i;
        }
        ASSERT_EQ(run.events.batches.size(), ref.events.batches.size())
            << threads;
        for (std::size_t b = 0; b < ref.events.batches.size(); ++b)
            EXPECT_TRUE(
                run.events.batches[b] == ref.events.batches[b])
                << threads << " batch " << b;
    }
}

TEST(ShardedEngineDeath, SecondSinkFailsFast)
{
    // The engine holds one sink: re-attaching it is a no-op, a
    // different one fails fast.
    ShardedEngine eng(engineConfig(2));
    EventLog first, second;
    eng.attachSink(&first);
    eng.attachSink(&first);
    EXPECT_DEATH({ eng.attachSink(&second); },
                 "traffic sink is already attached");
}

/**
 * Drive a plan sequence whose shard sets change from batch to batch
 * through @p t: every entry (all shards), allocation 0 alone (one
 * shard), an empty batch, allocations 0 and @p other interleaved op by
 * op (two shards), then allocation @p again freed, allocated anew,
 * written and read back. Appends every per-op result and summary.
 */
template <typename Target>
void
shardSetSequence(Target &t, std::size_t other, std::size_t again,
                 std::vector<AccessInfo> &infos,
                 std::vector<BatchSummary> &sums)
{
    const auto vas = allocateSet(t);
    const auto entries = mixedEntries(kN, 2024);
    std::vector<u8> out(kN * kEntryBytes);
    const auto entry = [](std::size_t a, std::size_t i) {
        return a * kEntriesPerAlloc + i;
    };
    const auto run = [&](AccessBatch &b) {
        sums.push_back(t.execute(b));
        infos.insert(infos.end(), b.results().begin(), b.results().end());
    };

    AccessBatch all, one, empty, two, fresh;
    for (std::size_t e = 0; e < kN; ++e)
        all.write(vas[e], entries[e].data());
    run(all);
    for (std::size_t i = 0; i < kEntriesPerAlloc; ++i)
        one.read(vas[i], &out[i * kEntryBytes]);
    run(one);
    run(empty);
    for (std::size_t i = 0; i < kEntriesPerAlloc; ++i) {
        two.probe(vas[entry(0, i)]);
        const std::size_t e = entry(other, i);
        two.read(vas[e], &out[e * kEntryBytes]);
    }
    run(two);

    t.free(vas[entry(again, 0)]);
    const auto id = t.allocate("again", kEntriesPerAlloc * kEntryBytes,
                               CompressionTarget::Ratio2);
    ASSERT_TRUE(id.has_value());
    const Addr base = *id;
    for (std::size_t i = 0; i < kEntriesPerAlloc; ++i) {
        fresh.write(base + i * kEntryBytes, entries[entry(other, i)].data());
        const std::size_t e = entry(other, i);
        fresh.read(vas[e], &out[e * kEntryBytes]);
    }
    run(fresh);
    fresh.clear();
    for (std::size_t i = 0; i < kEntriesPerAlloc; ++i)
        fresh.read(base + i * kEntryBytes, &out[i * kEntryBytes]);
    run(fresh);
    for (std::size_t i = 0; i < kEntriesPerAlloc; ++i)
        ASSERT_EQ(std::memcmp(&out[i * kEntryBytes],
                              entries[entry(other, i)].data(), kEntryBytes),
                  0)
            << "entry " << i;
}

TEST(ShardedEngine, ShardSetChangesMatchSingleControllerInBothWindowModes)
{
    // The engine's per-shard batch state (summaries, the shards in use,
    // the window groups) is reused across batches. State left over
    // from an earlier batch, or a stale address lookup after free(),
    // would show up as a result that differs from a single controller
    // running the same plans, or as a shard span with no ops of this
    // batch. Under PerShard the window totals are per-shard makespans,
    // so there each batch's Plan rows must match.
    std::vector<unsigned> shardOf;
    {
        ShardedEngine placement(engineConfig(4));
        allocateSet(placement);
        for (const auto &[base, a] : placement.allocations())
            shardOf.push_back(a.shard);
    }
    ASSERT_EQ(std::set<unsigned>(shardOf.begin(), shardOf.end()).size(),
              4u);
    std::size_t other = 1;
    while (shardOf[other] == shardOf[0])
        ++other;
    const std::size_t again = other == 1 ? 2 : 1;

    std::vector<AccessInfo> want;
    std::vector<BatchSummary> wantSums;
    BuddyController single(singleConfig());
    shardSetSequence(single, other, again, want, wantSums);

    for (const WindowMode mode : {WindowMode::Merged, WindowMode::PerShard}) {
        const bool merged = mode == WindowMode::Merged;
        SCOPED_TRACE(merged ? "Merged" : "PerShard");
        EngineConfig cfg = engineConfig(4);
        cfg.shard.windowMode = mode;
        ShardedEngine eng(cfg);
        BatchLog log;
        eng.setBatchObserver(&log);
        std::vector<AccessInfo> got;
        std::vector<BatchSummary> gotSums;
        shardSetSequence(eng, other, again, got, gotSums);
        for (const obs::BatchRecord &rec : log.records) {
            u64 ops = 0;
            for (const obs::BatchRecord::ShardSpan &span : rec.shards) {
                EXPECT_GT(span.ops, 0u) << "batch " << rec.seq;
                ops += span.ops;
            }
            EXPECT_EQ(ops, rec.summary.operations()) << "batch " << rec.seq;
        }
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_TRUE(sameInfo(got[i], want[i])) << "op " << i;
        ASSERT_EQ(gotSums.size(), wantSums.size());
        for (std::size_t b = 0; b < wantSums.size(); ++b) {
            if (merged) {
                EXPECT_TRUE(gotSums[b] == wantSums[b]) << "batch " << b;
                continue;
            }
            for (const SummaryField &f : kSummaryFields) {
                if (f.kind == SummaryFieldKind::Plan) {
                    EXPECT_EQ(gotSums[b].*f.member, wantSums[b].*f.member)
                        << "batch " << b << " " << f.metric;
                }
            }
        }
        if (merged) {
            EXPECT_TRUE(sameStats(eng, single));
        }
        EXPECT_EQ(eng.overflowEntries(), single.overflowEntries());
    }
}

TEST(ShardedEngine, ShardSpansAscendAndNoneGoStale)
{
    // The BatchRecord is reused across batches and its spans are filled
    // in shard order. Batch 1 visits the allocations from the highest
    // shard down, so its first op lands on a higher shard than a later
    // op; its spans must still ascend. Batch 2 touches one shard and
    // must carry exactly that one span, none left from batch 1.
    ShardedEngine eng(engineConfig(4));
    BatchLog log;
    eng.setBatchObserver(&log);
    const auto vas = allocateSet(eng);
    std::vector<unsigned> shardOf;
    for (const auto &[base, a] : eng.allocations())
        shardOf.push_back(a.shard);
    ASSERT_EQ(shardOf.size(), kAllocs);
    std::vector<std::size_t> order(kAllocs);
    for (std::size_t a = 0; a < kAllocs; ++a)
        order[a] = a;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                         return shardOf[x] > shardOf[y];
                     });
    const std::set<unsigned> used(shardOf.begin(), shardOf.end());
    ASSERT_GE(used.size(), 2u);
    ASSERT_GT(shardOf[order.front()], shardOf[order.back()]);

    const auto entries = mixedEntries(kN, 9);
    AccessBatch first;
    for (const std::size_t a : order)
        for (std::size_t i = 0; i < 4; ++i) {
            const std::size_t e = a * kEntriesPerAlloc + i;
            first.write(vas[e], entries[e].data());
        }
    eng.execute(first);

    std::vector<u8> out(kEntriesPerAlloc * kEntryBytes);
    AccessBatch second;
    for (std::size_t i = 0; i < 8; ++i)
        second.read(vas[i], &out[i * kEntryBytes]);
    eng.execute(second);

    ASSERT_EQ(log.records.size(), 2u);
    const obs::BatchRecord &r1 = log.records[0];
    ASSERT_EQ(r1.shards.size(), used.size());
    for (std::size_t k = 1; k < r1.shards.size(); ++k)
        EXPECT_LT(r1.shards[k - 1].shard, r1.shards[k].shard)
            << "span " << k;
    for (const obs::BatchRecord::ShardSpan &span : r1.shards)
        EXPECT_EQ(span.ops,
                  4u * static_cast<u64>(std::count(
                           shardOf.begin(), shardOf.end(), span.shard)));

    const obs::BatchRecord &r2 = log.records[1];
    ASSERT_EQ(r2.shards.size(), 1u);
    EXPECT_EQ(r2.shards[0].shard, shardOf[0]);
    EXPECT_EQ(r2.shards[0].ops, 8u);
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

TEST(ShardedEngine, AllocationsIterateInAllocationOrder)
{
    // Base addresses are never reused: after a, b, c, free(b), d, the
    // map walks a, c, d and d sits above c, on whichever shards they
    // landed.
    ShardedEngine eng(engineConfig(4));
    const auto a = eng.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    const auto b = eng.allocate("b", 64 * KiB, CompressionTarget::Ratio4);
    const auto c = eng.allocate("c", 64 * KiB, CompressionTarget::None);
    ASSERT_TRUE(a && b && c);
    eng.free(*b);
    const auto d = eng.allocate("d", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(d);
    EXPECT_GT(*d, *c);
    std::vector<std::string> names;
    for (const auto &[va, ea] : eng.allocations()) {
        EXPECT_EQ(va, ea.va);
        EXPECT_EQ(eng.shard(ea.shard).allocations().at(ea.shardVa).name,
                  ea.name);
        names.push_back(ea.name);
    }
    EXPECT_EQ(names, (std::vector<std::string>{"a", "c", "d"}));
}

TEST(ShardedEngineDeath, FreeOfAnythingButALiveBasePanics)
{
    // free() takes an allocation's base address: an address inside an
    // allocation, one in the gap a freed allocation left, and a base
    // freed twice all die.
    ShardedEngine eng(engineConfig(4));
    const auto a = eng.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    const auto b = eng.allocate("b", 64 * KiB, CompressionTarget::Ratio2);
    const auto c = eng.allocate("c", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(a && b && c);
    eng.free(*b);
    EXPECT_DEATH(eng.free(*a + kEntryBytes), "free of unknown");
    EXPECT_DEATH(eng.free(*b + kEntryBytes), "free of unknown");
    EXPECT_DEATH(eng.free(*b), "free of unknown");
}

TEST(ShardedEngineDeath, UnmappedAccessPanics)
{
    // An op in the gap a freed allocation left, or past the last
    // allocation, names no allocation.
    ShardedEngine eng(engineConfig(4));
    const auto a = eng.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    const auto b = eng.allocate("b", 64 * KiB, CompressionTarget::Ratio2);
    const auto c = eng.allocate("c", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(a && b && c);
    eng.free(*b);
    u8 out[kEntryBytes];
    AccessBatch gap;
    gap.read(*b, out);
    EXPECT_DEATH(eng.execute(gap), "not inside any allocation");
    AccessBatch past;
    past.read(*c + eng.allocations().at(*c).bytes, out);
    EXPECT_DEATH(eng.execute(past), "not inside any allocation");
}

TEST(Trace, ReplayReproducesRecordedTotals)
{
    const auto entries = mixedEntries(kN, 99);

    // Record on a 4-shard engine.
    ShardedEngine rec(engineConfig(4));
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
    EXPECT_TRUE(replayer.recordedTotals().summary == recorder.totals().summary);
    // Each entry is written once, so no write is marked unchanged.
    EXPECT_EQ(expectMarksChangeNothing(replayer), 0u);

    // Identically-configured engine: every field reproduces, including
    // metadata hits (same per-shard access sequences).
    ShardedEngine same(engineConfig(4));
    const TraceTotals replayed = replayer.replay(same);
    EXPECT_TRUE(replayed.summary == replayer.recordedTotals().summary);
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

    EngineConfig remote4 = engineConfig(4);
    remote4.shard.buddyBackend = "remote";
    EngineConfig remote1 = engineConfig(1);
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
    EXPECT_EQ(expectMarksChangeNothing(replayer, remote1), 0u);

    // Two fresh 4-shard runs of the same trace.
    using ShardStats = std::pair<BatchSummary, u64>; // stats, overflow
    const auto runSharded = [&](std::vector<ShardStats> &per_shard) {
        ShardedEngine eng(remote4);
        const TraceTotals t = replayer.replay(eng);
        per_shard.clear();
        for (unsigned s = 0; s < eng.shardCount(); ++s)
            per_shard.emplace_back(eng.shard(s).stats(),
                                   eng.shard(s).overflowEntries());
        return t;
    };
    std::vector<ShardStats> shardsA, shardsB;
    const TraceTotals runA = runSharded(shardsA);
    const TraceTotals runB = runSharded(shardsB);

    // Per-shard and merged cycle totals reproduce run-to-run.
    ASSERT_EQ(shardsA.size(), shardsB.size());
    for (std::size_t s = 0; s < shardsA.size(); ++s)
        EXPECT_TRUE(shardsA[s].first == shardsB[s].first &&
                    shardsA[s].second == shardsB[s].second)
            << "shard " << s;
    EXPECT_TRUE(runA.summary == runB.summary);

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
        EngineConfig cfg = engineConfig(shards);
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
    EXPECT_EQ(expectMarksChangeNothing(replayer, windowed(1)), 0u);

    // 1-, 2-, and 4-shard replays (4-shard twice, for run-to-run).
    const auto run = [&](unsigned shards) {
        ShardedEngine eng(windowed(shards));
        const TraceTotals t = replayer.replay(eng);
        // Engine stats report the merged-stream windowed totals.
        const BatchSummary st = eng.stats();
        EXPECT_EQ(st.deviceWindowCycles, t.summary.deviceWindowCycles);
        EXPECT_EQ(st.buddyWindowCycles, t.summary.buddyWindowCycles);
        return t;
    };
    const TraceTotals four_a = run(4);
    const TraceTotals four_b = run(4);
    const TraceTotals two = run(2);
    const TraceTotals one = run(1);

    EXPECT_TRUE(four_a.summary == four_b.summary);
    EXPECT_TRUE(four_a.summary == two.summary);
    EXPECT_TRUE(four_a.summary == one.summary);
    EXPECT_TRUE(four_a.summary == recorded);
}

TEST(ShardedEngine, PerShardWindowModeAtOneShardMatchesMergedBitForBit)
{
    // The tentpole invariant: with a single shard the per-shard window
    // mode degenerates to the merged single-GPU replay — same stream,
    // same link timing, one "GPU" — so every per-op window charge, the
    // batch summaries, and the merged stats must be bit-identical.
    const auto entries = mixedEntries(kN, 901);

    const auto config = [&](WindowMode mode) {
        EngineConfig cfg = engineConfig(1);
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
    EXPECT_TRUE(wm.summary() == wp.summary());
    EXPECT_TRUE(rm.summary() == rp.summary());
    EXPECT_TRUE(sameStats(merged, pershard));
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
        EngineConfig cfg = engineConfig(4);
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
        return std::make_pair(eng.stats(), eng.overflowEntries());
    };

    BatchSummary wA, rA, wB, rB, wM, rM;
    const auto [statsA, overflowA] =
        run(config(WindowMode::PerShard), wA, rA);
    const auto [statsB, overflowB] =
        run(config(WindowMode::PerShard), wB, rB);
    const BatchSummary statsM = run(config(WindowMode::Merged), wM, rM).first;

    // Reproducible run-to-run.
    EXPECT_TRUE(wA == wB);
    EXPECT_TRUE(rA == rB);
    EXPECT_TRUE(statsA == statsB);
    EXPECT_EQ(overflowA, overflowB);

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

TEST(ShardedEngine, ResubmitReproducesFlowTotals)
{
    // Traffic and cycle charges are pure per-op functions of the data,
    // so re-submitting the identical plans must reproduce every flow
    // total of the first pass exactly. overflowEntries() is a
    // population gauge, not a flow counter: rewriting identical data
    // toggles no entry, so it holds throughout.
    const auto entries = mixedEntries(kN, 903);

    EngineConfig cfg = engineConfig(4);
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
        BatchSummary sum = eng.execute(w);
        for (std::size_t i = 0; i < kN; ++i) {
            if (i % 3 == 0)
                r.probe(vas[i]);
            else
                r.read(vas[i], out.data() + i * kEntryBytes);
        }
        sum.accumulate(eng.execute(r));
        return sum;
    };

    const BatchSummary first = pass();
    const u64 overflow = eng.overflowEntries();
    EXPECT_GT(overflow, 0u);

    const BatchSummary second = pass();
    EXPECT_EQ(eng.overflowEntries(), overflow);
    EXPECT_EQ(second.reads, first.reads);
    EXPECT_EQ(second.writes, first.writes);
    EXPECT_EQ(second.probes, first.probes);
    EXPECT_EQ(second.deviceSectors, first.deviceSectors);
    EXPECT_EQ(second.buddySectors, first.buddySectors);
    EXPECT_EQ(second.buddyAccesses, first.buddyAccesses);
    EXPECT_EQ(second.deviceCycles, first.deviceCycles);
    EXPECT_EQ(second.buddyCycles, first.buddyCycles);
    EXPECT_EQ(second.deviceWindowCycles, first.deviceWindowCycles);
    EXPECT_EQ(second.buddyWindowCycles, first.buddyWindowCycles);
    EXPECT_EQ(second.combinedWindowCycles, first.combinedWindowCycles);
    EXPECT_GT(second.combinedWindowCycles, 0u);
}

/** FNV-1a 64 over @p bytes. */
u64
fnv1a(const std::vector<u8> &bytes)
{
    u64 h = 0xcbf29ce484222325ull;
    for (u8 b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Trace, SequentialRecordingIsByteStable)
{
    // Recording the same sequentially-submitted workload twice must
    // produce bit-identical trace files (events are replayed to engine
    // sinks in submission order, not completion order). Rewriting every
    // entry with its own bytes adds repeat records, which are as stable.
    const auto entries = mixedEntries(512, 13);

    auto record = [&](bool rewrite) {
        ShardedEngine eng(engineConfig(4));
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
        if (rewrite)
            eng.execute(w);
        return recorder.serialize();
    };

    const std::vector<u8> once = record(false);
    EXPECT_EQ(once, record(false));
    // The rewrite pass adds a few bytes per entry, not 128.
    const std::vector<u8> twice = record(true);
    EXPECT_EQ(twice, record(true));
    EXPECT_LT(twice.size(), once.size() + once.size() / 4);
    // A capture without a rewrite holds no repeat record, so it is the
    // image the recorder wrote before repeat records existed.
    EXPECT_EQ(once.size(), 57140u);
    EXPECT_EQ(fnv1a(once), 0x30ad074e52925643ull);
}

TEST(Trace, ZeroWritesRecordNoPayload)
{
    // A zero write is recorded as its tag and address alone; a
    // non-zero write adds its 128 B payload.
    ShardedEngine eng(engineConfig(2));
    TraceRecorderSink recorder;
    eng.attachSink(&recorder);
    const auto id = eng.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
    ASSERT_TRUE(id.has_value());
    const Addr va = *id;

    const u8 zeros[kEntryBytes] = {};
    AccessBatch batch;
    batch.write(va, zeros);
    eng.execute(batch);
    EXPECT_EQ(recorder.opCount(), 1u);
    const std::size_t zero_image = recorder.serialize().size();

    u8 entry[kEntryBytes];
    for (std::size_t i = 0; i < kEntryBytes; ++i)
        entry[i] = static_cast<u8>(i + 1);
    batch.clear();
    batch.write(va, entry);
    eng.execute(batch);
    EXPECT_EQ(recorder.opCount(), 2u);
    EXPECT_GE(recorder.serialize().size(), zero_image + kEntryBytes);
    EXPECT_LT(zero_image, kEntryBytes);
}

/** Bytes of @p v's LEB128 varint. */
std::vector<u8>
varint(u64 v)
{
    std::vector<u8> out;
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<u8>(v) | 0x80);
    out.push_back(static_cast<u8>(v));
    return out;
}

/** The recorder's image up to the end of its record stream: the footer
 *  (its tag and sixteen totals varints) cut off. */
std::vector<u8>
streamImage(const TraceRecorderSink &rec)
{
    std::vector<u8> image = rec.serialize();
    const BatchSummary &s = rec.totals().summary;
    const u64 fields[] = {s.reads,
                          s.writes,
                          s.probes,
                          s.deviceSectors,
                          s.buddySectors,
                          s.metadataHits,
                          s.metadataMisses,
                          s.buddyAccesses,
                          s.deviceCycles,
                          s.buddyCycles,
                          s.deviceWindowCycles,
                          s.buddyWindowCycles,
                          s.combinedWindowCycles,
                          s.codecCycles,
                          s.codecChargedWindowCycles,
                          rec.totals().batches};
    std::size_t footer = 1;
    for (u64 f : fields)
        footer += varint(f).size();
    image.resize(image.size() - footer);
    return image;
}

TEST(Trace, UnchangedRewriteRecordsAReference)
{
    // A write whose bytes equal its entry's last payload is recorded as
    // its tag (write | 0x40), entry index and the distance k back to
    // that payload record. A changed rewrite, a rewrite after a zero
    // write, and bytes equal only to another entry's payload record
    // the full 128 B. The replay resolves every reference to the bytes
    // it names, at 1 and 4 shards.
    std::vector<std::vector<u8>> data(5, std::vector<u8>(kEntryBytes));
    for (std::size_t e = 0; e < data.size(); ++e)
        for (std::size_t i = 0; i < kEntryBytes; ++i)
            data[e][i] = static_cast<u8>(e * 37 + i * 3 + 1);
    const u8 zeros[kEntryBytes] = {};

    for (unsigned shards : {1u, 4u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        ShardedEngine eng(engineConfig(shards));
        TraceRecorderSink recorder;
        eng.attachSink(&recorder);
        const auto id =
            eng.allocate("a", 8 * kEntryBytes, CompressionTarget::Ratio2);
        ASSERT_TRUE(id.has_value());
        const EngineAllocation &ea = eng.allocations().at(*id);
        recorder.noteAllocation(ea.name, ea.va, ea.bytes, ea.target);
        const auto va = [&](std::size_t e) { return ea.va + e * kEntryBytes; };

        // One single-write batch; returns the stream bytes it added,
        // less its two-byte batch mark (0xFE, count 1).
        const auto writeOne = [&](std::size_t e, const u8 *bytes) {
            const std::vector<u8> before = streamImage(recorder);
            AccessBatch b;
            b.write(va(e), bytes);
            eng.execute(b);
            const std::vector<u8> after = streamImage(recorder);
            EXPECT_TRUE(std::equal(before.begin(), before.end(),
                                   after.begin()));
            EXPECT_EQ(after[after.size() - 2], 0xFE);
            EXPECT_EQ(after.back(), 1u);
            return std::vector<u8>(after.begin() + before.size(),
                                   after.end() - 2);
        };
        const auto repeatRecord = [&](std::size_t e, u64 k) {
            std::vector<u8> rec{0x41};
            const std::vector<u8> idx = varint(va(e) / kEntryBytes);
            const std::vector<u8> back = varint(k);
            rec.insert(rec.end(), idx.begin(), idx.end());
            rec.insert(rec.end(), back.begin(), back.end());
            return rec;
        };
        const std::size_t payload_record =
            1 + varint(va(0) / kEntryBytes).size() + kEntryBytes;
        // Reads entries 0..3 in one batch, checks them against
        // @p expect and keeps them for the replay to match.
        std::vector<u8> recorded_reads;
        const auto readBack = [&](std::vector<const std::vector<u8> *> expect) {
            const std::size_t at = recorded_reads.size();
            recorded_reads.resize(at + 4 * kEntryBytes);
            AccessBatch reads;
            for (std::size_t e = 0; e < 4; ++e)
                reads.read(va(e), recorded_reads.data() + at + e * kEntryBytes);
            eng.execute(reads);
            for (std::size_t e = 0; e < 4; ++e)
                EXPECT_EQ(0, std::memcmp(recorded_reads.data() + at +
                                             e * kEntryBytes,
                                         expect[e]->data(), kEntryBytes));
        };

        AccessBatch first;
        for (std::size_t e = 0; e < 4; ++e)
            first.write(va(e), data[e].data());
        eng.execute(first); // payload records 0..3

        // Entry 1 again with its own bytes: k = 4 - 1.
        const std::vector<u8> rewrite = writeOne(1, data[1].data());
        EXPECT_EQ(rewrite, repeatRecord(1, 3));
        EXPECT_EQ(rewrite.size(), 1 + varint(va(1) / kEntryBytes).size() +
                                      varint(3).size());
        readBack({&data[0], &data[1], &data[2], &data[3]});
        // Entry 2 with changed bytes: payload record 4.
        std::vector<u8> rec = writeOne(2, data[4].data());
        EXPECT_EQ(rec.size(), payload_record);
        EXPECT_EQ(rec[0], 0x01);
        // A zero write clears entry 3's reference: payload record 5.
        rec = writeOne(3, zeros);
        EXPECT_EQ(rec[0], 0x11);
        rec = writeOne(3, data[3].data());
        EXPECT_EQ(rec.size(), payload_record);
        // Entry 0 with entry 1's bytes: payload record 6.
        rec = writeOne(0, data[1].data());
        EXPECT_EQ(rec.size(), payload_record);
        // Entry 1's last payload is still record 1: k = 7 - 1.
        EXPECT_EQ(writeOne(1, data[1].data()), repeatRecord(1, 6));

        readBack({&data[1], &data[1], &data[4], &data[3]});
        eng.detachSink(&recorder);

        TraceReplayer replayer;
        replayer.loadImage(recorder.serialize());
        EXPECT_EQ(replayer.opCount(), recorder.opCount());

        // Every batch replays onto a fresh engine: the totals match the
        // footer's, and the read batches read the recorded bytes back.
        ShardedEngine fresh(engineConfig(shards));
        TraceCursor cursor(replayer, fresh);
        TraceTotals replayed;
        AccessBatch plan;
        std::vector<u8> read_buf, replayed_reads;
        while (cursor.next(plan, read_buf)) {
            replayed.summary.accumulate(fresh.execute(plan));
            ++replayed.batches;
            if (plan.ops()[0].kind == AccessKind::Read)
                replayed_reads.insert(replayed_reads.end(), read_buf.begin(),
                                      read_buf.end());
        }
        EXPECT_TRUE(replayed.summary == replayer.recordedTotals().summary);
        EXPECT_EQ(replayed.batches, replayer.recordedTotals().batches);
        EXPECT_EQ(replayed_reads, recorded_reads);
        // Both of entry 1's repeats name its last payload, so both are
        // marked; entry 0's write of entry 1's bytes is a payload.
        EXPECT_EQ(expectMarksChangeNothing(replayer), 2u);
    }
}

TEST(Trace, AllocationsNotedOutOfVaOrderReplay)
{
    // The recorder notes allocations in call order, which need not be
    // VA order; the loader resolves each op to the noted allocation
    // that holds it whatever the order. "b" is noted with 424 B, so its
    // last entry is partial and still holds an op.
    struct Spec
    {
        const char *name;
        u64 bytes;
    };
    const Spec specs[] = {{"a", 4 * kEntryBytes},
                          {"b", 3 * kEntryBytes + 40},
                          {"c", 5 * kEntryBytes}};
    const auto entries = mixedEntries(13, 43);

    for (unsigned shards : {1u, 4u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        ShardedEngine eng(engineConfig(shards));
        TraceRecorderSink recorder;
        eng.attachSink(&recorder);
        std::vector<Addr> vas; // every entry, in VA order
        std::vector<std::pair<Addr, const Spec *>> noted;
        for (const Spec &spec : specs) {
            const auto id =
                eng.allocate(spec.name, spec.bytes, CompressionTarget::Ratio2);
            ASSERT_TRUE(id.has_value());
            const Addr base = *id;
            noted.emplace_back(base, &spec);
            for (u64 off = 0; off < spec.bytes; off += kEntryBytes)
                vas.push_back(base + off);
        }
        ASSERT_EQ(vas.size(), entries.size());
        ASSERT_LT(noted[0].first, noted[1].first);
        ASSERT_LT(noted[1].first, noted[2].first);
        for (auto it = noted.rbegin(); it != noted.rend(); ++it)
            recorder.noteAllocation(it->second->name, it->first,
                                    it->second->bytes,
                                    CompressionTarget::Ratio2);

        AccessBatch writes;
        for (std::size_t e = 0; e < vas.size(); ++e)
            writes.write(vas[e], entries[e].data());
        eng.execute(writes);
        std::vector<u8> recorded_reads(vas.size() * kEntryBytes);
        AccessBatch reads;
        for (std::size_t e = 0; e < vas.size(); ++e)
            reads.read(vas[e], recorded_reads.data() + e * kEntryBytes);
        eng.execute(reads);
        eng.detachSink(&recorder);
        for (std::size_t e = 0; e < vas.size(); ++e)
            ASSERT_EQ(0, std::memcmp(recorded_reads.data() + e * kEntryBytes,
                                     entries[e].data(), kEntryBytes));

        TraceReplayer replayer;
        replayer.loadImage(recorder.serialize());
        ShardedEngine fresh(engineConfig(shards));
        TraceCursor cursor(replayer, fresh);
        TraceTotals replayed;
        AccessBatch plan;
        std::vector<u8> read_buf, replayed_reads;
        while (cursor.next(plan, read_buf)) {
            replayed.summary.accumulate(fresh.execute(plan));
            ++replayed.batches;
            if (plan.ops()[0].kind == AccessKind::Read)
                replayed_reads = read_buf;
        }
        EXPECT_TRUE(replayed.summary == replayer.recordedTotals().summary);
        EXPECT_EQ(replayed.batches, replayer.recordedTotals().batches);
        EXPECT_EQ(replayed_reads, recorded_reads);
        EXPECT_EQ(expectMarksChangeNothing(replayer), 0u);
    }
}

TEST(Trace, MarkedReplayMatchesUnmarkedReplay)
{
    // The paper's DL snapshots: each snapshot writes every entry again,
    // mostly with the bytes it already holds (temporal stability, fig8),
    // sometimes with new bytes or zeros, with reads and probes between.
    // Allocations of every kind of target give Raw and overflowing
    // entries as well as compressed ones.
    const CompressionTarget targets[] = {
        CompressionTarget::Ratio2, CompressionTarget::None,
        CompressionTarget::Ratio4, CompressionTarget::MostlyZero};
    constexpr std::size_t kEntries = 128;
    const auto pool = mixedEntries(64, 7);
    const u8 zeros[kEntryBytes] = {};

    ShardedEngine rec(engineConfig(4));
    TraceRecorderSink recorder;
    rec.attachSink(&recorder);
    std::vector<Addr> vas;
    for (const CompressionTarget t : targets) {
        const auto id = rec.allocate("a", kEntries * kEntryBytes, t);
        ASSERT_TRUE(id.has_value());
        const EngineAllocation &ea = rec.allocations().at(*id);
        recorder.noteAllocation(ea.name, ea.va, ea.bytes, ea.target);
        for (std::size_t i = 0; i < kEntries; ++i)
            vas.push_back(ea.va + i * kEntryBytes);
    }

    Rng rng(17);
    std::vector<const u8 *> held(vas.size(), zeros);
    u8 out[kEntryBytes];
    AccessBatch batch;
    for (unsigned snapshot = 0; snapshot < 6; ++snapshot) {
        for (std::size_t e = 0; e < vas.size(); ++e) {
            const u64 pick = rng.below(10);
            if (snapshot == 0 || pick == 0)
                held[e] = pool[rng.below(pool.size())].data();
            else if (pick == 1)
                held[e] = zeros;
            batch.write(vas[e], held[e]);
            if (rng.below(4) == 0)
                batch.read(vas[rng.below(vas.size())], out);
            if (rng.below(8) == 0)
                batch.probe(vas[rng.below(vas.size())]);
            if (batch.size() >= 97) {
                rec.execute(batch);
                batch.clear();
            }
        }
        rec.execute(batch);
        batch.clear();
    }
    rec.detachSink(&recorder);

    TraceReplayer replayer;
    replayer.loadImage(recorder.serialize());
    // Most of the 5 x 512 rewrites repeat their entry's last payload.
    EXPECT_GT(expectMarksChangeNothing(replayer), 2 * vas.size());
}

/**
 * Load a hand-built image whose one batch holds @p records, over one
 * page-sized Ratio2 allocation at entry 0, and replay it at 1 and 4
 * shards. The cursor must mark exactly the ops @p marks names, and the
 * reads must return @p reads in order. Marks must change nothing.
 */
void
expectHandBuiltReplay(const std::vector<u8> &records,
                      const std::vector<bool> &marks,
                      const std::vector<const u8 *> &reads)
{
    std::vector<u8> image = {'B', 'D', 'Y', 'T', 5, 0x01, 0x00, 0x00};
    const std::vector<u8> bytes = varint(kPageBytes);
    image.insert(image.end(), bytes.begin(), bytes.end());
    image.push_back(static_cast<u8>(CompressionTarget::Ratio2));
    image.insert(image.end(), records.begin(), records.end());
    const std::vector<u8> count = varint(marks.size());
    image.push_back(0xFE);
    image.insert(image.end(), count.begin(), count.end());
    image.push_back(0xFF);
    image.insert(image.end(), 16, 0x00); // footer totals (all zero)
    TraceReplayer replayer;
    replayer.loadImage(image);

    for (unsigned shards : {1u, 4u}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        ShardedEngine eng(engineConfig(shards));
        TraceCursor cursor(replayer, eng);
        AccessBatch plan;
        std::vector<u8> read_buf;
        ASSERT_TRUE(cursor.next(plan, read_buf));
        ASSERT_EQ(plan.size(), marks.size());
        for (std::size_t i = 0; i < plan.size(); ++i)
            EXPECT_EQ(plan.ops()[i].unchanged, marks[i]) << "op " << i;
        // A wrong mark may abort the replay; report it instead.
        if (::testing::Test::HasFailure())
            return;
        eng.execute(plan);
        ASSERT_EQ(read_buf.size(), reads.size() * kEntryBytes);
        for (std::size_t r = 0; r < reads.size(); ++r)
            EXPECT_EQ(0, std::memcmp(read_buf.data() + r * kEntryBytes,
                                     reads[r], kEntryBytes))
                << "read " << r;
    }
    expectMarksChangeNothing(replayer);
}

/** Record builders for hand-built images: an op's tag and entry index,
 *  then a payload record's 128 B or a repeat's distance @p k. */
void
putOp(std::vector<u8> &out, u8 tag, u64 entry)
{
    const std::vector<u8> idx = varint(entry);
    out.push_back(tag);
    out.insert(out.end(), idx.begin(), idx.end());
}

void
putPayload(std::vector<u8> &out, u64 entry, const u8 *bytes)
{
    putOp(out, 0x01, entry);
    out.insert(out.end(), bytes, bytes + kEntryBytes);
}

void
putRepeat(std::vector<u8> &out, u64 entry, u64 k)
{
    const std::vector<u8> back = varint(k);
    putOp(out, 0x41, entry);
    out.insert(out.end(), back.begin(), back.end());
}

void
putZeroWrite(std::vector<u8> &out, u64 entry)
{
    putOp(out, 0x11, entry);
}

void
putRead(std::vector<u8> &out, u64 entry)
{
    putOp(out, 0x00, entry);
}

/** Two distinct non-zero entries for hand-built images. */
struct TwoPayloads
{
    u8 a[kEntryBytes], b[kEntryBytes];

    TwoPayloads()
    {
        for (std::size_t i = 0; i < kEntryBytes; ++i) {
            a[i] = static_cast<u8>(i + 1);
            b[i] = static_cast<u8>(3 * i + 7);
        }
    }
};

TEST(Trace, RepeatOfAnotherEntrysPayloadReplaysUnmarked)
{
    // The recorder never writes it, but a repeat may name any earlier
    // payload record: entry 1 takes entry 0's bytes A by reference. It
    // is not marked (entry 1 holds B), and it replays to A. Entry 1's
    // next repeat of A, and entry 0's, are marked.
    const TwoPayloads p;
    std::vector<u8> records;
    putPayload(records, 0, p.a); // payload record 0
    putPayload(records, 1, p.b); // payload record 1
    putRepeat(records, 1, 2);    // entry 1 <- A
    putRepeat(records, 0, 2);    // entry 0 <- A again
    putRepeat(records, 1, 2);    // entry 1 <- A again
    putRead(records, 0);
    putRead(records, 1);
    expectHandBuiltReplay(records, {false, false, false, true, true, false,
                                    false},
                          {p.a, p.a});
}

TEST(Trace, RepeatAfterAZeroWriteReplaysUnmarked)
{
    // A zero write between a payload and its repeat leaves the entry
    // zero, so the repeat must encode again; the one after it is marked.
    const TwoPayloads p;
    std::vector<u8> records;
    putPayload(records, 0, p.a);
    putZeroWrite(records, 0);
    putRepeat(records, 0, 1);
    putRead(records, 0);
    putRepeat(records, 0, 1);
    putRead(records, 0);
    expectHandBuiltReplay(records, {false, false, false, false, true, false},
                          {p.a, p.a});
}

TEST(Trace, RepeatOfAnAllZeroPayloadReplaysUnmarked)
{
    // The recorder writes an all-zero entry as a zero write, but an
    // image may hold an all-zero payload record. The controller stores
    // it as a zero entry, so no repeat of it is marked.
    const u8 zeros[kEntryBytes] = {};
    std::vector<u8> records;
    putPayload(records, 0, zeros);
    putRepeat(records, 0, 1);
    putRepeat(records, 0, 1);
    putRead(records, 0);
    expectHandBuiltReplay(records, {false, false, false, false}, {zeros});
}

TEST(TraceDeath, MarkedWriteToAnEntryZeroedOutsideTheCursorDies)
{
    // A cursor's marks assume its batches are the only writes to its
    // allocations. A zero write from outside voids them, and the next
    // marked write to that entry fails fast instead of keeping a stale
    // encoding.
    std::vector<std::vector<u8>> entries(4, std::vector<u8>(kEntryBytes));
    for (std::size_t e = 0; e < entries.size(); ++e)
        for (std::size_t i = 0; i < kEntryBytes; ++i)
            entries[e][i] = static_cast<u8>(e * 31 + i + 1);
    ShardedEngine rec(engineConfig(1));
    TraceRecorderSink recorder;
    rec.attachSink(&recorder);
    const auto id = rec.allocate("a", 4 * kEntryBytes,
                                 CompressionTarget::Ratio2);
    ASSERT_TRUE(id.has_value());
    const EngineAllocation &ea = rec.allocations().at(*id);
    recorder.noteAllocation(ea.name, ea.va, ea.bytes, ea.target);
    AccessBatch w;
    for (std::size_t e = 0; e < entries.size(); ++e)
        w.write(*id + e * kEntryBytes, entries[e].data());
    rec.execute(w);
    rec.execute(w); // every write repeats its entry's bytes
    rec.detachSink(&recorder);
    TraceReplayer replayer;
    replayer.loadImage(recorder.serialize());

    const auto replay = [&](bool zero_outside) {
        ShardedEngine eng(engineConfig(1));
        TraceCursor cursor(replayer, eng);
        AccessBatch plan;
        std::vector<u8> read_buf;
        ASSERT_TRUE(cursor.next(plan, read_buf));
        eng.execute(plan);
        if (zero_outside) {
            const u8 zeros[kEntryBytes] = {};
            AccessBatch outside;
            outside.write(eng.allocations().begin()->first + kEntryBytes,
                          zeros);
            eng.execute(outside);
        }
        ASSERT_TRUE(cursor.next(plan, read_buf));
        ASSERT_EQ(markedWrites(plan), entries.size());
        eng.execute(plan);
    };
    replay(false);
    EXPECT_DEATH(replay(true), "unchanged write to a zero entry");
}

TEST(Trace, SerializeCopiesTheStreamOnce)
{
    // serialize() sizes the whole image before it copies the stream
    // in, so the stream is copied once: a vector that grew while the
    // footer went in would hold about twice the image's size.
    ShardedEngine eng(engineConfig(2));
    TraceRecorderSink recorder;
    eng.attachSink(&recorder);
    const auto vas = allocateSet(eng);
    const auto entries = mixedEntries(kN, 41);
    AccessBatch batch;
    for (std::size_t i = 0; i < kN; ++i)
        batch.write(vas[i], entries[i].data());
    eng.execute(batch);

    const std::vector<u8> image = recorder.serialize();
    EXPECT_GT(image.size(), kN * kEntryBytes / 2);
    EXPECT_LE(image.capacity() - image.size(), 160u);
}

TEST(TraceDeath, NonZeroWriteEventWithoutPayloadDies)
{
    // Every non-zero write needs a payload (the controller's executeOp
    // requires op.src, and the recorder copies it), so a write without
    // one is an internal fault, not an op to skip.
    EXPECT_DEATH(
        {
            ShardedEngine eng(engineConfig(2));
            TraceRecorderSink recorder;
            eng.attachSink(&recorder);
            const auto id =
                eng.allocate("a", 64 * KiB, CompressionTarget::Ratio2);
            AccessBatch batch;
            batch.write(*id, nullptr);
            eng.execute(batch);
        },
        "payload");
}

TEST(TraceDeath, UnexecutedBatchDies)
{
    // The recorder reads each op's result; a batch that has not run
    // has none.
    EXPECT_DEATH(
        {
            TraceRecorderSink recorder;
            AccessBatch batch;
            batch.probe(4 * kPageBytes);
            recorder.onBatch(batch);
        },
        "has not executed");
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
