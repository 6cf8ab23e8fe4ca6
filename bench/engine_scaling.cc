/**
 * @file
 * Engine scaling: simulated-traffic throughput vs. shard count.
 *
 * Builds one mixed working set (entries cycling through all six
 * compressibility need buckets), then for each shard count in a
 * power-of-two sweep constructs a fresh ShardedEngine, writes the whole
 * set through batched plans and reads it back, and reports wall-clock
 * entries/s plus the speedup over the 1-shard configuration.
 *
 * Correctness ride-along: the plan-pure totals (isolationEqual without
 * the window fields: traffic, serial link and codec cycle charges) and
 * the overflow gauge of every sharded run are checked bit-identical to
 * the 1-shard reference — the engine's
 * core invariant — so a scaling win can never come from doing different
 * work. The sim-Mcycles column reports that simulated time; the
 * psh-win-Mcycles column reports the per-shard-window (N-GPU) windowed
 * makespan (BuddyConfig::windowMode = PerShard, --window deep MSHR
 * pools per shard, cross-shard barrier per batch), which shrinks with
 * the shard count while the traffic stays identical.
 *
 *   bench_engine_scaling --shards=8 --entries=131072
 *   bench_engine_scaling --smoke       # tiny set + "SMOKE OK" for CI
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "engine/engine.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "service/scheduler.h"
#include "workloads/patterns.h"

using namespace buddy;

namespace {

struct RunResult
{
    double seconds = 0;
    BatchSummary stats;
    u64 overflowEntries = 0;
    WindowImbalanceStats imbalance;
};

/** Write + read the whole working set through one engine. */
RunResult
runOnce(unsigned shards, const std::string &codec, std::size_t entries,
        std::size_t allocs, const std::vector<u8> &data,
        std::size_t batch_entries, u64 window, WindowMode mode,
        obs::MetricRegistry *registry = nullptr,
        obs::ChromeTraceSink *trace = nullptr)
{
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.shard.codec = codec;
    // Worst case the ordinal hash lands every allocation on one shard:
    // give each shard room for the whole logical set at the 2x target.
    cfg.shard.deviceBytes = entries * kEntryBytes + 8 * MiB;
    // Under per-shard window mode each shard keeps its own W-deep MSHR
    // pool and batches complete at a cross-shard barrier, so the win
    // column reports the N-GPU simulated makespan of the sweep; merged
    // mode windows the submission-order stream once, through one window
    // group (the single-GPU equivalent, shard-count-invariant).
    cfg.shard.linkWindow = window;
    cfg.shard.windowMode = mode;
    ShardedEngine eng(cfg);
    if (registry != nullptr)
        eng.attachMetrics(*registry);
    if (trace != nullptr)
        eng.setBatchObserver(trace);

    const std::size_t per_alloc = (entries + allocs - 1) / allocs;
    std::vector<Addr> vas(entries);
    std::size_t e = 0;
    for (std::size_t a = 0; a < allocs && e < entries; ++a) {
        const std::size_t count = std::min(per_alloc, entries - e);
        const auto id = eng.allocate("set" + std::to_string(a),
                                     count * kEntryBytes,
                                     CompressionTarget::Ratio2);
        if (!id) {
            std::fprintf(stderr, "engine allocation failed\n");
            std::exit(1);
        }
        const Addr base = *id;
        for (std::size_t i = 0; i < count; ++i, ++e)
            vas[e] = base + i * kEntryBytes;
    }

    std::vector<u8> readback(entries * kEntryBytes);
    AccessBatch plan(batch_entries);

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t base = 0; base < entries; base += batch_entries) {
        const std::size_t count = std::min(batch_entries, entries - base);
        plan.clear();
        for (std::size_t i = 0; i < count; ++i)
            plan.write(vas[base + i], data.data() + (base + i) * kEntryBytes);
        eng.execute(plan);
    }
    for (std::size_t base = 0; base < entries; base += batch_entries) {
        const std::size_t count = std::min(batch_entries, entries - base);
        plan.clear();
        for (std::size_t i = 0; i < count; ++i)
            plan.read(vas[base + i],
                      readback.data() + (base + i) * kEntryBytes);
        eng.execute(plan);
    }
    const auto t1 = std::chrono::steady_clock::now();

    RunResult r;
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.stats = eng.stats();
    r.overflowEntries = eng.overflowEntries();
    r.imbalance = eng.windowImbalance();
    return r;
}

/** Compact "n,n,n,..." rendering of the imbalance ratio histogram. */
std::string
histString(const WindowImbalanceStats &s)
{
    std::string out;
    for (std::size_t b = 0; b < WindowImbalanceStats::kRatioBuckets; ++b) {
        if (!out.empty())
            out += ",";
        out += strfmt("%llu", (unsigned long long)s.ratioHist[b]);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags cli("bench_engine_scaling",
                 "simulated-traffic throughput vs. shard count");
    cli.addUint("shards", 8, "maximum shard count in the sweep");
    cli.addUint("entries", 128 * 1024, "working-set size in 128 B entries");
    cli.addString("codec", "bpc", "codec registry name");
    cli.addUint("allocs", 16, "allocations the set is spread over");
    cli.addUint("batch", 8192, "entries per submitted access plan");
    addWindowFlag(cli); // --window, default 32
    cli.addEnum("window-mode", "per-shard",
                {{"merged", static_cast<u64>(WindowMode::Merged)},
                 {"per-shard", static_cast<u64>(WindowMode::PerShard)}},
                "windowed-timing mode of the sweep");
    cli.addBool("smoke", "tiny working set + pass/fail line for CI");
    addJsonFlag(cli);     // --json, machine-readable report
    addTraceOutFlag(cli); // --trace-out, traces the max-shard run
    if (!cli.parse(argc, argv))
        return 0;

    const bool smoke = cli.boolOf("smoke");
    // --smoke shrinks the sweep but an explicit --entries/--shards wins.
    const std::size_t entries = static_cast<std::size_t>(
        !cli.wasSet("entries") && smoke ? 4096 : cli.uintOf("entries"));
    const unsigned max_shards = static_cast<unsigned>(
        !cli.wasSet("shards") && smoke ? 4 : cli.uintOf("shards"));
    const std::size_t allocs = std::max<u64>(1, cli.uintOf("allocs"));
    const std::size_t batch_entries = std::max<u64>(1, cli.uintOf("batch"));
    const u64 window = windowOf(cli);
    const auto mode = static_cast<WindowMode>(cli.enumOf("window-mode"));
    const std::string &mode_token = cli.enumTokenOf("window-mode");
    const std::string &codec = cli.stringOf("codec");
    if (entries == 0 || max_shards == 0) {
        std::fprintf(stderr, "--entries and --shards must be nonzero\n");
        return 1;
    }

    std::printf("=== engine scaling: %zu-entry mixed working set, codec "
                "%s ===\n\n",
                entries, codec.c_str());

    // One mixed working set shared by every run (seeded off the engine's
    // deterministic shard-0 seed so reruns are bit-identical).
    std::vector<u8> data(entries * kEntryBytes);
    {
        Rng rng(engine::splitmix64(EngineConfig{}.seed ^ 1)); // shardSeed(0)
        for (std::size_t e = 0; e < entries; ++e)
            fillBucketEntry(rng, static_cast<unsigned>(e % kPatternBuckets),
                            data.data() + e * kEntryBytes);
    }

    Table t({"shards", "wall-ms", "entries/s", "speedup",
             "sim-Mcycles",
             strfmt("%s-win-Mcycles (W=%llu)", mode_token.c_str(),
                    (unsigned long long)window)});
    RunResult ref;
    bool totals_ok = true;
    std::vector<std::pair<unsigned, RunResult>> runs;
    // Telemetry is attached to the largest-shard run of the sweep: its
    // registry is embedded in the --json report and its timeline is
    // what --trace-out renders.
    obs::MetricRegistry registry;
    obs::ChromeTraceSink trace;
    const bool want_trace = !traceOutPathOf(cli).empty();
    for (unsigned shards = 1; shards <= max_shards; shards *= 2) {
        const bool last = shards * 2 > max_shards;
        const RunResult r =
            runOnce(shards, codec, entries, allocs, data, batch_entries,
                    window, mode, last ? &registry : nullptr,
                    last && want_trace ? &trace : nullptr);
        if (shards == 1)
            ref = r;
        else if (!isolationEqual(r.stats, ref.stats, false) ||
                 r.overflowEntries != ref.overflowEntries)
            totals_ok = false;
        runs.emplace_back(shards, r);

        const double eps = 2.0 * static_cast<double>(entries); // W + R
        t.addRow({strfmt("%u", shards),
                  strfmt("%.1f", r.seconds * 1e3),
                  strfmt("%.0f", eps / r.seconds),
                  strfmt("%.2fx", ref.seconds / r.seconds),
                  strfmt("%.2f", static_cast<double>(r.stats.deviceCycles +
                                                     r.stats.buddyCycles) /
                                     1e6),
                  strfmt("%.2f",
                         static_cast<double>(
                             r.stats.combinedWindowCycles) /
                             1e6)});
    }
    t.print();

    if (mode == WindowMode::PerShard) {
        // Cross-shard window-imbalance: the spread between the fastest
        // and slowest shard's per-batch makespans — time the barrier
        // spends waiting on the most-loaded GPU.
        std::printf("\nper-batch per-shard makespan spread (imbalance = "
                    "mean barrier makespan / mean shard makespan):\n\n");
        Table im({"shards", "min-kcyc", "mean-kcyc", "max-kcyc",
                  "imbalance", "max/mean hist 1.0..2.0+ (0.1 steps)"});
        for (const auto &[shards, r] : runs)
            im.addRow({strfmt("%u", shards),
                       strfmt("%.1f", r.imbalance.meanMin() / 1e3),
                       strfmt("%.1f", r.imbalance.meanShard() / 1e3),
                       strfmt("%.1f", r.imbalance.meanMax() / 1e3),
                       strfmt("%.3f", r.imbalance.imbalance()),
                       histString(r.imbalance)});
        im.print();
    }

    std::printf("\ncross-shard traffic totals (incl. serial link cycle "
                "charges) vs. 1-shard reference: %s\n",
                totals_ok ? "bit-identical" : "MISMATCH");
    if (mode == WindowMode::PerShard)
        std::printf("per-shard-win-Mcycles is the N-GPU simulated "
                    "makespan: each shard keeps its own W-deep MSHR pool "
                    "and batches complete at a cross-shard barrier, so it "
                    "shrinks as shards are added while the traffic totals "
                    "stay bit-identical\n");
    else
        std::printf("merged-win-Mcycles windows the merged "
                    "submission-order stream through one W-deep window "
                    "group, so it is shard-count-invariant like the "
                    "traffic totals\n");
    if (!jsonPathOf(cli).empty()) {
        obs::BenchReport report("engine_scaling");
        report.setValue("entries", static_cast<u64>(entries));
        report.setValue("max_shards", max_shards);
        report.setValue("codec", codec);
        report.setValue("window", window);
        report.setValue("window_mode", mode_token);
        report.setValue("traffic_ok",
                        static_cast<u64>(totals_ok ? 1 : 0));
        if (!runs.empty()) {
            const RunResult &best = runs.back().second;
            report.setValue("best_shards", runs.back().first);
            report.setValue("best_entries_per_s",
                            2.0 * static_cast<double>(entries) /
                                best.seconds);
            report.setValue("best_speedup", ref.seconds / best.seconds);
            report.setValue("sim_cycles", ref.stats.deviceCycles +
                                              ref.stats.buddyCycles);
            report.setValue("best_window_cycles",
                            best.stats.combinedWindowCycles);
        }
        report.addTable("scaling", t);
        report.attachRegistry(&registry);
        report.writeTo(jsonPathOf(cli));
        std::printf("wrote %s\n", jsonPathOf(cli).c_str());
    }
    if (want_trace) {
        trace.save(traceOutPathOf(cli));
        std::printf("trace: %zu batches -> %s (load in ui.perfetto.dev)\n",
                    trace.batches(), traceOutPathOf(cli).c_str());
    }

    if (smoke)
        std::printf("%s\n", totals_ok ? "SMOKE OK" : "SMOKE FAILED");
    return totals_ok ? 0 : 1;
}
