/**
 * @file
 * Figure 10: simulator fidelity and speed.
 *
 * The paper correlates its proprietary simulator against a real V100
 * (left) and shows a ~100x wall-clock advantage over GPGPU-Sim (right).
 * Without silicon we substitute (documented in DESIGN.md):
 *
 *  (i) fidelity proxy: simulated cycles vs. an analytical first-order
 *      expectation (max of issue-limited and bandwidth-limited time)
 *      across all 16 benchmarks — the correlation the dependency-driven
 *      model is supposed to preserve;
 *  (ii) speed: wall-clock per simulated cycle as the workload size
 *      sweeps, demonstrating the linear scaling that makes full-figure
 *      sweeps tractable;
 *  (iii) functional throughput: entries/s through the controller's
 *      batched access plan, the path the functional experiments (write
 *      image -> read back) spend their time in;
 *  (iv) simulated time of the timed backends: the same working set
 *      written and read through dram/host-um, dram/remote, and a
 *      4-shard engine with NVLink-peer carve-outs under both window
 *      modes (merged single-GPU stream and per-shard N-GPU pools with
 *      a cross-shard barrier), reporting the serial link cycle
 *      totals (each op's unloaded latency + transfer, written by the
 *      batch's one timing pass, core/window_pass.h), the
 *      windowed-replay makespans (--window outstanding
 *      round trips, timing/window.h), the combined (cross-link)
 *      makespans, and the codec-charged makespans (combined plus the
 *      pipelined (de)compression unit, timing/window.h CodecStage),
 *      and checking that multi-shard cycle totals reproduce
 *      run-to-run;
 *  (v) the windowed replay's W sweep on the dram/host-um pair: W=1
 *      must reproduce the serial totals bit-for-bit and wider windows
 *      must shrink monotonely toward the bandwidth bound, the combined
 *      and codec-charged makespans shrinking monotonely inside them.
 *
 * --smoke shrinks the set and runs sections (iv)+(v) only, emitting
 * "SMOKE OK"/"SMOKE FAILED" — the CI snapshot gate drives the engine's
 * timed clock paths through this mode, under ASan/UBSan too.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/controller.h"
#include "engine/engine.h"
#include "gpusim/gpu.h"
#include "obs/report.h"
#include "workloads/benchmark.h"
#include "workloads/patterns.h"

using namespace buddy;

namespace {

/** Write the set then read it back through @p target; the summed
 *  summaries of the two passes. */
template <typename Target>
BatchSummary
runTimed(Target &target, std::size_t entries, const std::vector<u8> &data)
{
    constexpr std::size_t kAllocs = 8;
    const std::size_t per_alloc = (entries + kAllocs - 1) / kAllocs;
    std::vector<Addr> vas;
    vas.reserve(entries);
    std::size_t e = 0;
    for (std::size_t a = 0; a < kAllocs && e < entries; ++a) {
        const std::size_t count = std::min(per_alloc, entries - e);
        const auto id = target.allocate("t" + std::to_string(a),
                                        count * kEntryBytes,
                                        CompressionTarget::Ratio2);
        if (!id) {
            std::fprintf(stderr, "timed-run allocation failed\n");
            std::exit(1);
        }
        const Addr base = *id;
        for (std::size_t i = 0; i < count; ++i, ++e)
            vas.push_back(base + i * kEntryBytes);
    }

    std::vector<u8> out(entries * kEntryBytes);
    BatchSummary r;
    AccessBatch plan(entries);
    for (std::size_t i = 0; i < entries; ++i)
        plan.write(vas[i], data.data() + i * kEntryBytes);
    r.accumulate(target.execute(plan));

    plan.clear();
    for (std::size_t i = 0; i < entries; ++i)
        plan.read(vas[i], out.data() + i * kEntryBytes);
    r.accumulate(target.execute(plan));
    return r;
}

/** The randomized working set sections (iv) and (v) share. */
std::vector<u8>
timedWorkingSet(std::size_t entries)
{
    std::vector<u8> data(entries * kEntryBytes);
    Rng rng(29);
    for (std::size_t e = 0; e < entries; ++e)
        fillBucketEntry(rng, static_cast<unsigned>(e % kPatternBuckets),
                        data.data() + e * kEntryBytes);
    return data;
}

/** Section (iv): simulated cycles per timed backend configuration. */
bool
timedBackendSection(std::size_t entries, const std::string &codec,
                    u64 window)
{
    const std::vector<u8> data = timedWorkingSet(entries);

    Table t({"device/buddy backends", "dev-cycles", "buddy-cycles",
             "total",
             strfmt("win-total (W=%llu)", (unsigned long long)window),
             "comb-total", "codec-charged", "vs dram/host-um"});
    double baseline = 0;
    bool windows_bounded = true;
    const auto addRow = [&](const std::string &name, const BatchSummary &r) {
        if (baseline == 0)
            baseline = static_cast<double>(r.totalCycles());
        t.addRow({name, strfmt("%llu", (unsigned long long)r.deviceCycles),
                  strfmt("%llu", (unsigned long long)r.buddyCycles),
                  strfmt("%llu", (unsigned long long)r.totalCycles()),
                  strfmt("%llu", (unsigned long long)r.windowTotalCycles()),
                  strfmt("%llu",
                         (unsigned long long)r.combinedWindowCycles),
                  strfmt("%llu",
                         (unsigned long long)r.codecChargedWindowCycles),
                  strfmt("%.2fx",
                         static_cast<double>(r.totalCycles()) / baseline)});
        // The windowed makespan can never exceed the serial charge,
        // and the combined (cross-link) makespan is bracketed by the
        // per-link max and the per-link sum. The codec-charged makespan
        // stacks the inline (de)compression unit on top of the combined
        // one, so it can only grow from there and never by more than
        // the sum of the per-op serial codec charges.
        windows_bounded =
            windows_bounded && r.windowTotalCycles() <= r.totalCycles();
        windows_bounded =
            windows_bounded &&
            r.combinedWindowCycles <= r.windowTotalCycles() &&
            r.combinedWindowCycles >=
                std::max(r.deviceWindowCycles, r.buddyWindowCycles);
        windows_bounded =
            windows_bounded &&
            r.codecChargedWindowCycles >= r.combinedWindowCycles &&
            r.codecChargedWindowCycles <=
                r.combinedWindowCycles + r.codecCycles;
    };

    for (const char *buddy_kind : {"host-um", "remote"}) {
        BuddyConfig cfg;
        cfg.codec = codec;
        cfg.deviceBytes = entries * kEntryBytes + 8 * MiB;
        cfg.buddyBackend = buddy_kind;
        cfg.linkWindow = window;
        BuddyController gpu(cfg);
        const BatchSummary r = runTimed(gpu, entries, data);
        addRow(buddy_kind == std::string("host-um") ? "dram / host-um"
                                                    : "dram / remote",
               r);
    }

    // 4-shard engine with NVLink-peer carve-outs, under both window
    // modes (merged single-GPU stream vs. per-shard N-GPU pools); each
    // run twice to check the multi-shard cycle totals (windowed
    // included) reproduce run-to-run.
    const auto peerRun = [&](WindowMode mode) {
        EngineConfig cfg;
        cfg.shards = 4;
        cfg.shard.codec = codec;
        cfg.shard.deviceBytes = entries * kEntryBytes + 8 * MiB;
        cfg.shard.buddyBackend = "peer";
        cfg.shard.linkWindow = window;
        cfg.shard.windowMode = mode;
        ShardedEngine eng(cfg);
        return runTimed(eng, entries, data);
    };
    const BatchSummary peerA = peerRun(WindowMode::Merged);
    const BatchSummary peerB = peerRun(WindowMode::Merged);
    const BatchSummary pshA = peerRun(WindowMode::PerShard);
    const BatchSummary pshB = peerRun(WindowMode::PerShard);
    addRow("dram / peer (4-shard, merged W)", peerA);
    addRow("dram / peer (4-shard, per-GPU W)", pshA);
    t.print();

    const bool reproducible = peerA == peerB && pshA == pshB;
    // The per-shard barrier over quarter-length streams can never be
    // slower than the merged single-GPU replay of the whole stream.
    const bool barrier_bounded =
        pshA.combinedWindowCycles <= peerA.combinedWindowCycles;
    std::printf("\n4-shard peer cycle totals run-to-run (both window "
                "modes): %s\n",
                reproducible ? "bit-identical" : "MISMATCH");
    std::printf("windowed makespans within the serial bound and "
                "combined within [max, sum]: %s\n",
                windows_bounded ? "yes" : "VIOLATED");
    std::printf("per-shard (N-GPU) makespan within the merged bound: "
                "%s\n",
                barrier_bounded ? "yes" : "VIOLATED");
    std::printf("link cycles are serial unloaded charges "
                "(timing/link_model.h); win-total overlaps them with W "
                "outstanding round trips (timing/window.h), comb-total "
                "additionally overlaps the two links against each other "
                "(WindowGroup); codec-charged stacks the pipelined "
                "(de)compression unit (CodecStage) on top of comb-total "
                "— bracketed by [comb, comb + serial codec charge], "
                "checked; the per-GPU row gives each shard its own MSHR "
                "pool with a cross-shard barrier\n");
    return reproducible && windows_bounded && barrier_bounded;
}

/**
 * Section (v): the W sweep — the same dram/host-um pass under growing
 * windows, bracketed by the serial (W=1) and bandwidth bounds. Returns
 * false if W=1 fails to reproduce the serial totals bit-for-bit or the
 * sweep leaves the bracket.
 */
bool
windowSweepSection(std::size_t entries, const std::string &codec)
{
    const std::vector<u8> data = timedWorkingSet(entries);

    Table t({"W", "win-total", "comb-total", "codec-charged",
             "vs serial"});
    bool ok = true;
    u64 serial_total = 0;
    u64 prev = 0;
    u64 prev_comb = 0;
    u64 prev_charged = 0;
    for (const u64 w : {1ull, 2ull, 4ull, 8ull, 16ull, 32ull, 64ull,
                        256ull}) {
        BuddyConfig cfg;
        cfg.codec = codec;
        cfg.deviceBytes = entries * kEntryBytes + 8 * MiB;
        cfg.linkWindow = w;
        BuddyController gpu(cfg);
        const BatchSummary r = runTimed(gpu, entries, data);
        if (w == 1) {
            serial_total = r.totalCycles();
            // The W=1 replay must equal the serial charge bit-for-bit.
            ok = ok && r.windowTotalCycles() == serial_total;
        } else {
            ok = ok && r.windowTotalCycles() <= prev &&
                 r.windowTotalCycles() <= serial_total;
            // The combined and codec-charged makespans shrink
            // monotonely with W too (wider windows only ever lower the
            // link frontiers the codec stage waits on).
            ok = ok && r.combinedWindowCycles <= prev_comb;
            ok = ok && r.codecChargedWindowCycles <= prev_charged;
        }
        ok = ok && r.combinedWindowCycles <= r.windowTotalCycles();
        ok = ok && r.codecChargedWindowCycles >= r.combinedWindowCycles &&
             r.codecChargedWindowCycles <=
                 r.combinedWindowCycles + r.codecCycles;
        prev = r.windowTotalCycles();
        prev_comb = r.combinedWindowCycles;
        prev_charged = r.codecChargedWindowCycles;
        t.addRow({strfmt("%llu", (unsigned long long)w),
                  strfmt("%llu", (unsigned long long)r.windowTotalCycles()),
                  strfmt("%llu",
                         (unsigned long long)r.combinedWindowCycles),
                  strfmt("%llu",
                         (unsigned long long)r.codecChargedWindowCycles),
                  strfmt("%.2fx", static_cast<double>(r.windowTotalCycles()) /
                                      static_cast<double>(serial_total))});
    }
    t.print();
    std::printf("\nW=1 reproduces the serial totals exactly; wider "
                "windows overlap the host-um round-trip latency "
                "(monotone, checked); the comb column overlaps the two "
                "links against each other on top (monotone and within "
                "the win-total, checked); codec-charged stacks the "
                "pipelined codec unit on the combined makespan "
                "(monotone and within [comb, comb + serial codec "
                "charge], checked)\n");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags cli("bench_fig10_sim_speed",
                 "simulator fidelity proxy and speed");
    cli.addUint("entries", 32768,
                "entries in the functional-throughput plan (iii/iv)");
    cli.addString("codec", "bpc", "codec for the functional path");
    addWindowFlag(cli); // --window, default 32
    cli.addBool("smoke", "small set, timed section only, pass/fail line");
    addJsonFlag(cli);
    if (!cli.parse(argc, argv))
        return 0;

    obs::BenchReport report("fig10_sim_speed");
    const auto writeReport = [&] {
        if (!jsonPathOf(cli).empty()) {
            report.writeTo(jsonPathOf(cli));
            std::printf("wrote %s\n", jsonPathOf(cli).c_str());
        }
    };

    const u64 window = windowOf(cli);
    const bool smoke = cli.boolOf("smoke");
    if (smoke) {
        const std::size_t n = static_cast<std::size_t>(
            cli.wasSet("entries") ? cli.uintOf("entries") : 4096);
        const bool ok =
            timedBackendSection(n, cli.stringOf("codec"), window) &&
            windowSweepSection(n / 4, cli.stringOf("codec"));
        report.setValue("smoke_ok", static_cast<u64>(ok ? 1 : 0));
        report.setValue("entries", static_cast<u64>(n));
        report.setValue("window", window);
        writeReport();
        std::printf("%s\n", ok ? "SMOKE OK" : "SMOKE FAILED");
        return ok ? 0 : 1;
    }

    std::printf("=== Figure 10: simulator fidelity proxy and speed "
                "===\n\n");

    // (i) Fidelity proxy: measured cycles vs. analytical expectation.
    Table t({"benchmark", "sim-cycles", "analytical", "ratio"});
    RunningStat log_ratio;
    std::vector<double> xs, ys;
    for (const auto &spec : benchmarkRegistry()) {
        const WorkloadModel model(spec, 24 * MiB);
        SimConfig sc;
        sc.mode = CompressionMode::Ideal;
        const SimResult r = GpuSimulator(sc, model).run();

        // First-order analytical model: max(issue time, DRAM time).
        const double ops_per_sm =
            static_cast<double>(sc.memOpsPerWarp) * sc.warpsPerSm;
        const double issue =
            ops_per_sm * (1.0 + spec.access.computePerMemory);
        const double dram =
            static_cast<double>(r.deviceSectors) /
            sc.deviceSectorsPerCycle();
        const double expect = std::max(issue, dram);

        t.addRow({spec.name, strfmt("%.0f", r.cycles),
                  strfmt("%.0f", expect),
                  strfmt("%.2f", r.cycles / expect)});
        xs.push_back(std::log(expect));
        ys.push_back(std::log(r.cycles));
        log_ratio.add(std::log(r.cycles / expect));
    }
    t.print();

    // Pearson correlation of log-cycles (the paper reports 0.989
    // against silicon; we report against the analytical expectation).
    double mx = 0, my = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        mx += xs[i];
        my += ys[i];
    }
    mx /= static_cast<double>(xs.size());
    my /= static_cast<double>(ys.size());
    double sxy = 0, sxx = 0, syy = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sxy += (xs[i] - mx) * (ys[i] - my);
        sxx += (xs[i] - mx) * (xs[i] - mx);
        syy += (ys[i] - my) * (ys[i] - my);
    }
    const double correlation = sxy / std::sqrt(sxx * syy);
    std::printf("\nlog-log correlation vs. analytical model: %.3f "
                "(paper: 0.989 vs. silicon)\n\n",
                correlation);
    report.setValue("log_log_correlation", correlation);
    report.addTable("fidelity_proxy", t);

    // (ii) Speed: wall-clock scaling with simulated work.
    Table s({"memOps/warp", "sim-cycles", "wall-ms", "cycles/ms"});
    for (const u64 ops : {100ull, 200ull, 400ull, 800ull, 1600ull}) {
        const auto &spec = findBenchmark("356.sp");
        const WorkloadModel model(spec, 24 * MiB);
        SimConfig sc;
        sc.mode = CompressionMode::Ideal;
        sc.memOpsPerWarp = ops;
        const auto t0 = std::chrono::steady_clock::now();
        const SimResult r = GpuSimulator(sc, model).run();
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        s.addRow({strfmt("%llu", static_cast<unsigned long long>(ops)),
                  strfmt("%.0f", r.cycles), strfmt("%.2f", ms),
                  strfmt("%.0f", r.cycles / ms)});
    }
    s.print();
    std::printf("\nwall-clock grows linearly with simulated work "
                "(the property that enables the Figure 11 sweeps)\n\n");
    report.addTable("speed_scaling", s);

    // (iii) Functional-path throughput via the batched access plan.
    {
        const std::size_t n = cli.uintOf("entries");
        BuddyConfig cfg;
        cfg.codec = cli.stringOf("codec");
        cfg.deviceBytes = 4 * n * kEntryBytes + 8 * MiB;
        BuddyController gpu(cfg);
        const auto id = gpu.allocate("span", n * kEntryBytes,
                                     CompressionTarget::Ratio2);
        if (!id) {
            std::fprintf(stderr, "functional span allocation failed\n");
            return 1;
        }
        const Addr va = *id;

        Rng rng(11);
        std::vector<u8> data(n * kEntryBytes);
        for (std::size_t e = 0; e < n; ++e)
            fillBucketEntry(rng, static_cast<unsigned>(e % 6),
                            data.data() + e * kEntryBytes);

        AccessBatch batch(n);
        for (std::size_t e = 0; e < n; ++e)
            batch.write(va + e * kEntryBytes,
                        data.data() + e * kEntryBytes);

        const auto t0 = std::chrono::steady_clock::now();
        gpu.execute(batch);
        const auto t1 = std::chrono::steady_clock::now();
        const double sec =
            std::chrono::duration<double>(t1 - t0).count();
        std::printf("functional batch write throughput: %.0f entries/s "
                    "(%zu-entry plan, all six need buckets)\n\n",
                    static_cast<double>(n) / sec, n);
        report.setValue("functional_entries_per_s",
                        static_cast<double>(n) / sec);
    }

    // (iv) Simulated time of the timed backends.
    std::printf("--- timed functional backends (simulated cycles) "
                "---\n\n");
    const bool backends_ok = timedBackendSection(
        static_cast<std::size_t>(cli.uintOf("entries")),
        cli.stringOf("codec"), window);

    // (v) The windowed replay's W sweep on the dram/host-um pair.
    std::printf("\n--- windowed replay W sweep (dram/host-um) ---\n\n");
    const bool sweep_ok = windowSweepSection(
        static_cast<std::size_t>(cli.uintOf("entries")) / 4,
        cli.stringOf("codec"));
    report.setValue("backends_ok", static_cast<u64>(backends_ok ? 1 : 0));
    report.setValue("window_sweep_ok", static_cast<u64>(sweep_ok ? 1 : 0));
    writeReport();
    return backends_ok && sweep_ok ? 0 : 1;
}
