/**
 * @file
 * End-to-end determinism of the telemetry subsystem (src/obs/): one
 * recorded trace replayed through engines at 1/2/4 shards must export
 * byte-identical `sim/` metric JSON — under the default codec timing
 * and under an explicitly slow CodecTiming alike — the full
 * deterministic export must reproduce run-to-run at a fixed shard
 * count, W=1 plus a free codec must collapse the windowed totals onto
 * the serial charges, and the Chrome-trace timeline and buddy-bench-v1
 * report renderers must emit byte-stable, syntactically valid JSON.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/controller.h"
#include "engine/engine.h"
#include "engine/trace.h"
#include "json_check.h"
#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/report.h"
#include "timing/window.h"
#include "workloads/patterns.h"

namespace buddy {
namespace {

constexpr std::size_t kAllocs = 4;
constexpr std::size_t kEntriesPerAlloc = 192;
constexpr std::size_t kN = kAllocs * kEntriesPerAlloc;

EngineConfig
engineConfig(unsigned shards)
{
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.shard.deviceBytes = 8 * MiB;
    cfg.shard.linkWindow = 8; // windowed totals join the sim/ subtree
    return cfg;
}

/** Record the standard mixed workload once; returns the trace image. */
std::vector<u8>
recordWorkload()
{
    ShardedEngine rec(engineConfig(2));
    engine::TraceRecorderSink recorder;
    rec.attachSink(&recorder);

    Rng rng(7);
    std::vector<std::vector<u8>> entries(kN);
    std::vector<Addr> vas;
    for (std::size_t a = 0; a < kAllocs; ++a) {
        const auto id = rec.allocate("a" + std::to_string(a),
                                     kEntriesPerAlloc * kEntryBytes,
                                     CompressionTarget::Ratio2);
        EXPECT_TRUE(id.has_value());
        const EngineAllocation &ea = rec.allocations().at(*id);
        recorder.noteAllocation(ea.name, ea.va, ea.bytes, ea.target);
        for (std::size_t i = 0; i < kEntriesPerAlloc; ++i)
            vas.push_back(ea.va + i * kEntryBytes);
    }
    for (std::size_t i = 0; i < kN; ++i) {
        entries[i].assign(kEntryBytes, 0);
        fillBucketEntry(rng, static_cast<unsigned>(i % kPatternBuckets),
                        entries[i].data());
    }

    std::vector<u8> out(kN * kEntryBytes);
    AccessBatch w, r;
    for (std::size_t i = 0; i < kN; ++i)
        w.write(vas[i], entries[i].data());
    rec.execute(w);
    for (std::size_t i = 0; i < kN; ++i)
        r.read(vas[i], out.data() + i * kEntryBytes);
    rec.execute(r);
    rec.detachSink(&recorder);
    return recorder.serialize();
}

/** Replay the trace on a @p cfg engine with metrics; export the
 *  deterministic names under @p prefix (all of them when empty). */
std::string
replayExport(const engine::TraceReplayer &trace, const EngineConfig &cfg,
             const std::string &prefix, std::string *chromeJson = nullptr)
{
    ShardedEngine eng(cfg);
    obs::MetricRegistry registry;
    eng.attachMetrics(registry);
    obs::ChromeTraceSink sink;
    if (chromeJson != nullptr)
        eng.setBatchObserver(&sink);
    trace.replay(eng);
    if (chromeJson != nullptr)
        *chromeJson = sink.toJson();
    return obs::exportJson(
        testutil::withPrefix(registry.snapshot(), prefix));
}

TEST(ObsDeterminism, SimSubtreeIsByteIdenticalAcrossShardCounts)
{
    engine::TraceReplayer trace;
    trace.loadImage(recordWorkload());

    const std::string simOnly = obs::kSimPrefix;

    const std::string at1 = replayExport(trace, engineConfig(1), simOnly);
    const std::string at2 = replayExport(trace, engineConfig(2), simOnly);
    const std::string at4 = replayExport(trace, engineConfig(4), simOnly);

    EXPECT_TRUE(testutil::jsonValid(at1));
    EXPECT_FALSE(at1.empty());
    // The tentpole contract: simulated-time metrics do not depend on
    // the sharding. Byte equality, not field-by-field tolerance.
    EXPECT_EQ(at1, at2);
    EXPECT_EQ(at1, at4);
    // The export saw real work, not an empty registry.
    EXPECT_NE(at1.find("sim/engine/batches"), std::string::npos);
    EXPECT_NE(at1.find("sim/engine/window_occupancy"), std::string::npos);
}

TEST(ObsDeterminism, SimSubtreeShardInvariantUnderExplicitCodecTiming)
{
    engine::TraceReplayer trace;
    trace.loadImage(recordWorkload());

    const std::string simOnly = obs::kSimPrefix;

    // A deliberately slow unit (well past the registry defaults), so
    // the codec-charged makespan visibly diverges from the combined
    // one — and must still not depend on the sharding.
    const auto slowConfig = [](unsigned shards) {
        EngineConfig cfg = engineConfig(shards);
        cfg.shard.codecTiming = timing::CodecTiming{16, 8};
        return cfg;
    };
    const std::string at1 = replayExport(trace, slowConfig(1), simOnly);
    const std::string at2 = replayExport(trace, slowConfig(2), simOnly);
    const std::string at4 = replayExport(trace, slowConfig(4), simOnly);

    EXPECT_TRUE(testutil::jsonValid(at1));
    EXPECT_EQ(at1, at2);
    EXPECT_EQ(at1, at4);
    // The codec totals ride the sim/ subtree (merged window mode).
    EXPECT_NE(at1.find("sim/engine/codec_cycles"), std::string::npos);
    EXPECT_NE(at1.find("sim/engine/codec_charged_window_cycles"),
              std::string::npos);
    // And the slow unit's export differs from the default-timing one
    // (the metric is live, not a constant).
    EXPECT_NE(at1, replayExport(trace, engineConfig(1), simOnly));
}

TEST(ObsDeterminism, FreeCodecAtWindowOneReproducesSerialTotals)
{
    engine::TraceReplayer trace;
    trace.loadImage(recordWorkload());

    // The pre-codec-timing model is a config point, not a code path:
    // W=1 plus a free codec must collapse every windowed total onto
    // the serial charges bit-for-bit.
    EngineConfig cfg = engineConfig(4);
    cfg.shard.linkWindow = 1;
    cfg.shard.codecTiming = timing::CodecTiming{}; // free unit
    ShardedEngine eng(cfg);
    const TraceTotals t = trace.replay(eng);
    const BatchSummary &s = t.summary;
    EXPECT_GT(s.deviceCycles, 0u);
    EXPECT_EQ(s.codecCycles, 0u);
    EXPECT_EQ(s.deviceWindowCycles, s.deviceCycles);
    EXPECT_EQ(s.buddyWindowCycles, s.buddyCycles);
    EXPECT_EQ(s.codecChargedWindowCycles, s.combinedWindowCycles);
}

TEST(ObsDeterminism, FullDeterministicExportReproducesRunToRun)
{
    engine::TraceReplayer trace;
    trace.loadImage(recordWorkload());

    // Everything except wall/ — including the shard/ subtree, which is
    // sharding-*dependent* but still deterministic run-to-run.
    const std::string runA = replayExport(trace, engineConfig(4), "");
    const std::string runB = replayExport(trace, engineConfig(4), "");
    EXPECT_EQ(runA, runB);
    EXPECT_NE(runA.find("shard/s0/"), std::string::npos);
    // Nothing under wall/ reaches the deterministic export (the engine
    // registers none; test_metrics pins the exporter's exclusion).
    EXPECT_EQ(runA.find("wall/"), std::string::npos);
}

TEST(ObsDeterminism, ChromeTraceIsValidAndByteStable)
{
    engine::TraceReplayer trace;
    trace.loadImage(recordWorkload());

    const std::string simOnly = obs::kSimPrefix;
    std::string traceA, traceB;
    replayExport(trace, engineConfig(4), simOnly, &traceA);
    replayExport(trace, engineConfig(4), simOnly, &traceB);

    EXPECT_TRUE(testutil::jsonValid(traceA));
    EXPECT_EQ(traceA, traceB); // byte-stable run-to-run
    EXPECT_NE(traceA.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(traceA.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(traceA.find("\"ph\":\"M\""), std::string::npos);
}

TEST(ObsReport, BenchReportRendersValidStableJson)
{
    obs::MetricRegistry registry;
    registry.counter("sim/x/ops").add(42);
    registry.histogram("sim/x/lat").add(100);

    const auto build = [&] {
        obs::BenchReport report("unit_test");
        report.setValue("alpha", u64{7});
        report.setValue("ratio", 2.5);
        report.setValue("codec", std::string("bpc"));
        Table t({"col a", "col\"b"});
        t.addRow({"1", "x\\y"});
        report.addTable("rows", t);
        report.attachRegistry(&registry);
        return report.toJson();
    };
    const std::string a = build();
    const std::string b = build();
    EXPECT_EQ(a, b);
    EXPECT_TRUE(testutil::jsonValid(a));
    EXPECT_NE(a.find("\"schema\":\"buddy-bench-v1\""), std::string::npos);
    EXPECT_NE(a.find("\"bench\":\"unit_test\""), std::string::npos);
    EXPECT_NE(a.find("\"metrics\""), std::string::npos);
    EXPECT_NE(a.find("sim/x/ops"), std::string::npos);
}

} // namespace
} // namespace buddy
