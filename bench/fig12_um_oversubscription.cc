/**
 * @file
 * Figure 12: measured overheads of Unified Memory oversubscription
 * (modelled; see DESIGN.md for the real-hardware substitution).
 *
 * Paper reference points: runtime grows super-linearly (up to ~dozens
 * of x) with forced oversubscription of 0-40%; UM's migration
 * heuristics often perform *worse* than simply pinning everything in
 * host memory; Buddy Compression at a conservative 50 GB/s link stays
 * under 1.67x even at 50% effective oversubscription.
 *
 * The "buddy W=<n>" row per benchmark reports simulated time from the
 * controller's timing pass: the oversubscribed fraction of a working set
 * is placed behind the buddy carve-out's link (host-um NVLink timing)
 * and the whole set is read once with --window outstanding
 * round trips in flight (the MSHR-style windowed replay,
 * timing/window.h). At W = 1 that line equals the old "buddy serial"
 * latency-bound upper bound bit-for-bit; as W grows it approaches the
 * "buddy bw" bandwidth-bound lower bound (the busiest link's summed
 * per-op transfer cycles) — pass --bounds to print both
 * brackets, which the windowed line always falls between. A W-sweep
 * table shows the convergence.
 *
 * Three further lines refine the model: "buddy W=<n> comb" reports the
 * combined (cross-link) makespan — the device and buddy links drain in
 * parallel, so the pass finishes at the max of the per-link windowed
 * makespans rather than their sum (timing/window.h WindowGroup);
 * "buddy W=<n> codec" stacks the pipelined (de)compression unit on the
 * combined makespan (timing/window.h CodecStage — always within
 * [comb, comb + serial codec charge]); and "buddy W=<n> x<G>GPU" runs
 * the same pass on a --gpus-shard engine in per-shard window mode
 * (BuddyConfig::windowMode): each GPU keeps its own MSHR pool and the
 * pass completes at a cross-shard barrier, the honest N-GPU reading of
 * the peer backend.
 *
 * --smoke skips the UM model and checks the bracketing invariants of
 * all four windowed lines (including 1-GPU-per-shard == combined,
 * bit-for-bit) on a small set, emitting "SMOKE OK"/"SMOKE FAILED" for
 * CI.
 */

#include <algorithm>
#include <cstdio>
#include <type_traits>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/controller.h"
#include "core/window_pass.h"
#include "engine/engine.h"
#include "obs/report.h"
#include "umsim/um.h"
#include "workloads/benchmark.h"

using namespace buddy;

namespace {

/** Timed results of one oversubscribed read pass. */
struct TimedPass
{
    u64 serial = 0;     ///< serial link charges (latency bound)
    u64 bw = 0;         ///< bottleneck-pipe occupancy (bandwidth bound)
    u64 windowed = 0;   ///< per-link windowed makespans, summed
    u64 combined = 0;   ///< cross-link combined makespan (the honest line)
    u64 codec = 0;      ///< combined plus the pipelined codec unit
    u64 codecSerial = 0; ///< serial per-op codec charges, summed
};

/**
 * Allocate the resident/oversub split on @p target and run the write
 * pass: the resident part at target None (fully device resident), the
 * oversubscribed part at Ratio4 with incompressible payloads, so 96 of
 * its 128 bytes per entry cross the buddy link on every read. Shared
 * by the single-GPU and per-shard passes so both lines always time the
 * identical workload (same seed, allocation order, and payloads —
 * the smoke's 1-GPU == merged bit-equality rests on this).
 * @return the per-entry VAs of the written set.
 */
template <typename Target>
std::vector<Addr>
buildOversubSet(Target &target, std::size_t entries, double oversub)
{
    const std::size_t spill =
        static_cast<std::size_t>(static_cast<double>(entries) * oversub);
    const std::size_t resident = entries - spill;

    Rng rng(31);
    std::vector<Addr> vas;
    vas.reserve(entries);
    const auto place = [&](const char *name, std::size_t count,
                           CompressionTarget ratio) {
        if (count == 0)
            return;
        const auto id =
            target.allocate(name, count * kEntryBytes, ratio);
        if (!id) {
            std::fprintf(stderr, "fig12 timed allocation failed\n");
            std::exit(1);
        }
        const Addr base = target.allocations().at(*id).va;
        for (std::size_t i = 0; i < count; ++i)
            vas.push_back(base + i * kEntryBytes);
    };
    place("resident", resident, CompressionTarget::None);
    place("oversub", spill, CompressionTarget::Ratio4);

    // Payloads must outlive execute(): the plan stores pointers, so
    // each entry needs its own bytes (random data stays incompressible
    // and keeps the Ratio4 allocation spilling).
    std::vector<u8> data(entries * kEntryBytes);
    for (auto &b : data)
        b = static_cast<u8>(rng.below(256));
    AccessBatch plan(entries);
    for (std::size_t i = 0; i < vas.size(); ++i)
        plan.write(vas[i], data.data() + i * kEntryBytes);
    target.execute(plan);
    return vas;
}

/**
 * Read the whole set back, untimed on a controller (timedReadCycles
 * re-times it). @return the executed read plan: its results and
 * summary (the read destinations are gone).
 */
template <typename Target>
AccessBatch
readOversubSet(Target &target, const std::vector<Addr> &vas)
{
    AccessBatch plan(vas.size());
    std::vector<u8> readback(vas.size() * kEntryBytes);
    for (std::size_t i = 0; i < vas.size(); ++i)
        plan.read(vas[i], readback.data() + i * kEntryBytes);
    if constexpr (std::is_same_v<Target, BuddyController>)
        target.run(plan, false);
    else
        target.execute(plan);
    return plan;
}

/**
 * Simulated cycles to read an @p entries-entry set of which a fraction
 * @p oversub lives behind the buddy link (see buildOversubSet), per W
 * of @p windows: one untimed read pass, re-timed (core/window_pass.h).
 */
std::vector<TimedPass>
timedReadCycles(std::size_t entries, double oversub,
                const std::vector<u64> &windows)
{
    BuddyConfig cfg;
    cfg.deviceBytes = entries * kEntryBytes + 8 * MiB;
    BuddyController gpu(cfg);

    const AccessBatch read =
        readOversubSet(gpu, buildOversubSet(gpu, entries, oversub));

    // Perfectly overlapped, the read pass takes as long as its busiest
    // pipe is occupied: the summed transfer cycles of its reads.
    const timing::LinkTiming &dt = gpu.deviceStore().timing();
    const timing::LinkTiming &bt = gpu.carveOut().store().timing();
    const timing::LatencyBandwidthServer dev(dt.latency,
                                             dt.readBytesPerCycle);
    const timing::LatencyBandwidthServer bud(bt.latency,
                                             bt.readBytesPerCycle);
    u64 dev_busy = 0, bud_busy = 0;
    for (const AccessInfo &i : read.results()) {
        dev_busy += dev.transferCycles(u64{i.deviceSectors} * kSectorBytes);
        bud_busy += bud.transferCycles(u64{i.buddySectors} * kSectorBytes);
    }
    std::vector<TimedPass> passes;
    for (const u64 w : windows) {
        timing::WindowGroup group(gpu.deviceStore().makeWindow(w),
                                  gpu.carveOut().store().makeWindow(w),
                                  gpu.codecTiming());
        std::vector<AccessInfo> infos = read.results();
        BatchSummary s;
        windowBatch(read.ops(), infos, group, s);
        passes.push_back({s.totalCycles(), std::max(dev_busy, bud_busy),
                          s.windowTotalCycles(), s.combinedWindowCycles,
                          s.codecChargedWindowCycles, s.codecCycles});
    }
    return passes;
}

/**
 * The same oversubscribed read pass on an N-GPU sharded engine in
 * per-shard window mode: each GPU keeps its own MSHR pool over its own
 * links and the pass completes at a cross-shard barrier, so the
 * returned makespan is the max over the GPUs' combined makespans.
 */
u64
timedReadCyclesPerShard(std::size_t entries, double oversub, u64 window,
                        unsigned gpus)
{
    EngineConfig cfg;
    cfg.shards = gpus;
    cfg.shard.deviceBytes = entries * kEntryBytes + 8 * MiB;
    cfg.shard.linkWindow = window;
    cfg.shard.windowMode = WindowMode::PerShard;
    ShardedEngine eng(cfg);

    const std::vector<Addr> vas =
        buildOversubSet(eng, entries, oversub);
    return readOversubSet(eng, vas).summary().combinedWindowCycles;
}

std::string
ratioCell(u64 value, u64 base)
{
    return strfmt("%.2f",
                  static_cast<double>(value) / static_cast<double>(base));
}

/** Check the bracketing invariants of the windowed lines (smoke mode). */
bool
smokeCheck(std::size_t entries, u64 window, unsigned gpus)
{
    bool ok = true;
    for (const double o : {0.0, 0.2, 0.4}) {
        const auto pass = timedReadCycles(entries, o, {1, window});
        const TimedPass &serial1 = pass[0], &win = pass[1];

        // W=1 reproduces the serial bound bit-for-bit.
        if (serial1.windowed != serial1.serial) {
            std::printf("FAIL: W=1 windowed %llu != serial %llu at "
                        "oversub %.0f%%\n",
                        (unsigned long long)serial1.windowed,
                        (unsigned long long)serial1.serial, o * 100);
            ok = false;
        }
        // The windowed line lands between the recorded bounds.
        if (win.windowed > win.serial || win.windowed < win.bw) {
            std::printf("FAIL: windowed %llu outside [bw %llu, serial "
                        "%llu] at oversub %.0f%%\n",
                        (unsigned long long)win.windowed,
                        (unsigned long long)win.bw,
                        (unsigned long long)win.serial, o * 100);
            ok = false;
        }
        // The combined (cross-link) makespan tightens the windowed sum
        // without dropping below the bandwidth bound.
        if (win.combined > win.windowed || win.combined < win.bw) {
            std::printf("FAIL: combined %llu outside [bw %llu, windowed "
                        "%llu] at oversub %.0f%%\n",
                        (unsigned long long)win.combined,
                        (unsigned long long)win.bw,
                        (unsigned long long)win.windowed, o * 100);
            ok = false;
        }
        // The codec-charged makespan stacks the pipelined codec unit
        // on the combined one; it can only grow from there and never
        // by more than the serialized per-op codec charges. (On this
        // pass the spilled payloads are incompressible, so the stored
        // lines are raw, reads pay no decompression, and the line
        // coincides with the combined one.)
        if (win.codec < win.combined ||
            win.codec > win.combined + win.codecSerial) {
            std::printf("FAIL: codec-charged %llu outside [comb %llu, "
                        "comb + %llu] at oversub %.0f%%\n",
                        (unsigned long long)win.codec,
                        (unsigned long long)win.combined,
                        (unsigned long long)win.codecSerial, o * 100);
            ok = false;
        }
        // One GPU in per-shard mode degenerates to the merged line
        // bit-for-bit; N GPUs can only finish sooner (barrier of
        // quarter-length streams).
        const u64 one_gpu = timedReadCyclesPerShard(entries, o, window, 1);
        const u64 n_gpu =
            timedReadCyclesPerShard(entries, o, window, gpus);
        if (one_gpu != win.combined) {
            std::printf("FAIL: 1-GPU per-shard %llu != combined %llu at "
                        "oversub %.0f%%\n",
                        (unsigned long long)one_gpu,
                        (unsigned long long)win.combined, o * 100);
            ok = false;
        }
        if (n_gpu > one_gpu) {
            std::printf("FAIL: %u-GPU per-shard %llu exceeds 1-GPU %llu "
                        "at oversub %.0f%%\n",
                        gpus, (unsigned long long)n_gpu,
                        (unsigned long long)one_gpu, o * 100);
            ok = false;
        }
        // Determinism: the timed passes are pure functions of their configs.
        const TimedPass again = timedReadCycles(entries, o, {window})[0];
        if (again.windowed != win.windowed ||
            again.serial != win.serial || again.bw != win.bw ||
            again.combined != win.combined ||
            again.codec != win.codec ||
            again.codecSerial != win.codecSerial ||
            timedReadCyclesPerShard(entries, o, window, gpus) != n_gpu) {
            std::printf("FAIL: timed pass not reproducible at oversub "
                        "%.0f%%\n",
                        o * 100);
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags cli("bench_fig12_um_oversubscription",
                 "UM oversubscription overheads vs. the windowed "
                 "buddy-link timing");
    cli.addUint("entries", 16 * 1024,
                "entries in the timed working set");
    addWindowFlag(cli); // --window, default 32
    cli.addUint("gpus", 4,
                "GPUs of the per-shard (N-GPU) windowed line");
    cli.addBool("bounds",
                "also print the buddy serial/bw bracket rows");
    cli.addBool("smoke",
                "small set, bracketing checks only, pass/fail line");
    addJsonFlag(cli);
    if (!cli.parse(argc, argv))
        return 0;

    obs::BenchReport report("fig12_um_oversubscription");
    const auto writeReport = [&] {
        if (!jsonPathOf(cli).empty()) {
            report.writeTo(jsonPathOf(cli));
            std::printf("wrote %s\n", jsonPathOf(cli).c_str());
        }
    };

    const u64 window = windowOf(cli);
    const unsigned gpus =
        static_cast<unsigned>(std::max<u64>(1, cli.uintOf("gpus")));
    if (cli.boolOf("smoke")) {
        const std::size_t n = static_cast<std::size_t>(
            cli.wasSet("entries") ? cli.uintOf("entries") : 2048);
        const bool ok = smokeCheck(n, window, gpus);
        report.setValue("smoke_ok", static_cast<u64>(ok ? 1 : 0));
        report.setValue("entries", static_cast<u64>(n));
        report.setValue("window", window);
        writeReport();
        std::printf("%s\n", ok ? "SMOKE OK" : "SMOKE FAILED");
        return ok ? 0 : 1;
    }

    std::printf("=== Figure 12: UM oversubscription overheads "
                "(modelled Power9 + V100, 75 GB/s) ===\n"
                "(runtime relative to the fully-resident run)\n\n");

    const UmConfig cfg;
    const std::vector<double> oversub = {0.0, 0.1, 0.2, 0.3, 0.4};
    const bool bounds = cli.boolOf("bounds");

    std::vector<std::string> headers = {"benchmark", "mode"};
    for (const double o : oversub)
        headers.push_back(strfmt("%.0f%%", o * 100));
    Table t(headers);

    // The timed buddy-link lines are workload-independent in this model
    // (the link charge depends only on the spilled fraction): one read
    // pass per point, re-timed at ws[0] = --window and the sweep's Ws.
    const std::size_t entries =
        static_cast<std::size_t>(cli.uintOf("entries"));
    const std::vector<u64> ws = {window, 1, 2, 4, 8, 16, 32, 64, 256};
    std::vector<std::vector<TimedPass>> timed; // [oversub][ws]
    std::vector<u64> pershard;
    for (const double o : oversub) {
        timed.push_back(timedReadCycles(entries, o, ws));
        pershard.push_back(
            timedReadCyclesPerShard(entries, o, window, gpus));
    }
    const TimedPass &timed_base = timed[0][0]; // 0% oversubscription

    for (const char *name : {"360.ilbdc", "356.sp", "351.palm"}) {
        const auto &spec = findBenchmark(name);
        const double base =
            runUm(spec, cfg, UmMode::Resident, 0.0).cycles;

        std::vector<std::string> mig = {name, "UM migrate"};
        std::vector<std::string> pin = {name, "pinned"};
        std::vector<std::string> win = {
            name, strfmt("buddy W=%llu", (unsigned long long)window)};
        std::vector<std::string> comb = {
            name, strfmt("buddy W=%llu comb", (unsigned long long)window)};
        std::vector<std::string> codec = {
            name,
            strfmt("buddy W=%llu codec", (unsigned long long)window)};
        std::vector<std::string> ngpu = {
            name, strfmt("buddy W=%llu x%uGPU",
                         (unsigned long long)window, gpus)};
        std::vector<std::string> ser = {name, "buddy serial"};
        std::vector<std::string> bwb = {name, "buddy bw"};
        for (std::size_t i = 0; i < oversub.size(); ++i) {
            const double o = oversub[i];
            mig.push_back(strfmt(
                "%.2f", runUm(spec, cfg, UmMode::Migrate, o).cycles /
                            base));
            pin.push_back(strfmt(
                "%.2f",
                runUm(spec, cfg, UmMode::Pinned, o).cycles / base));
            const TimedPass &p = timed[i][0];
            win.push_back(ratioCell(p.windowed, timed_base.windowed));
            comb.push_back(ratioCell(p.combined, timed_base.combined));
            codec.push_back(ratioCell(p.codec, timed_base.codec));
            ngpu.push_back(ratioCell(pershard[i], pershard[0]));
            ser.push_back(ratioCell(p.serial, timed_base.serial));
            bwb.push_back(ratioCell(p.bw, timed_base.bw));
        }
        t.addRow(mig);
        t.addRow(pin);
        t.addRow(win);
        t.addRow(comb);
        t.addRow(codec);
        t.addRow(ngpu);
        if (bounds) {
            t.addRow(ser);
            t.addRow(bwb);
        }
    }
    t.print();

    // The W sweep: the windowed line interpolates between the serial
    // (W = 1) and bandwidth (W -> oo) bounds.
    std::printf("\n--- windowed buddy line vs. W (absolute Mcycles of "
                "the timed read pass) ---\n\n");
    std::vector<std::string> sweep_headers = {"W"};
    for (const double o : oversub)
        sweep_headers.push_back(strfmt("%.0f%%", o * 100));
    Table sweep(sweep_headers);
    for (std::size_t k = 1; k < ws.size(); ++k) {
        std::vector<std::string> row = {
            strfmt("%llu", (unsigned long long)ws[k])};
        for (const std::vector<TimedPass> &p : timed)
            row.push_back(strfmt(
                "%.2f", static_cast<double>(p[k].windowed) / 1e6));
        sweep.addRow(row);
    }
    {
        std::vector<std::string> row = {"bw bound"};
        for (const std::vector<TimedPass> &p : timed)
            row.push_back(
                strfmt("%.2f", static_cast<double>(p[0].bw) / 1e6));
        sweep.addRow(row);
    }
    sweep.print();

    std::printf("\npaper: migration runtime explodes with "
                "oversubscription and often exceeds the pinned line. "
                "The buddy rows charge the spilled fraction through "
                "the link (host-um NVLink timing) with W "
                "outstanding round trips (timing/window.h): W=1 is the "
                "serialized upper bound, W->oo the pipe-occupancy lower "
                "bound, and the windowed line lands between them — the "
                "paper measures ~1.67x at a 50 GB/s link (Fig. 11). "
                "The comb row overlaps the device and buddy links "
                "(makespan = max, not sum); the codec row stacks the "
                "pipelined (de)compression unit on the combined "
                "makespan (CodecStage — the spilled payloads here are "
                "incompressible and stored raw, so reads pay no "
                "decompression and the row tracks comb); the x%uGPU "
                "row gives each GPU its own MSHR pool with a "
                "cross-shard barrier (per-shard window mode)\n",
                gpus);

    report.setValue("entries", static_cast<u64>(entries));
    report.setValue("window", window);
    report.setValue("gpus", gpus);
    report.addTable("oversubscription", t);
    report.addTable("w_sweep", sweep);
    writeReport();
    return 0;
}
