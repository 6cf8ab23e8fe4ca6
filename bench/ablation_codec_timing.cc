/**
 * @file
 * Ablation: the (de)compression unit's speed (paper Section 5.1).
 *
 * The paper's design point is an inline hardware codec fast enough to
 * hide behind the NVLink transfers. This ablation asks how much of the
 * timing story depends on that assumption: one write+read pass over a
 * compressible working set runs once, untimed, and is re-timed under a
 * ladder of CodecTiming points, from a free unit through the registry's
 * hardware defaults out to a software-LZ4-class unit that is orders of
 * magnitude slower (one entry per ~hundred cycles, deep pipeline).
 *
 * The codec stage is charged through the windowed scheduler
 * (timing/window.h CodecStage), so the sweep pins the model's
 * structural guarantees while showing the trend:
 *
 *  - every link-side total (serial, windowed, combined) is
 *    bit-identical across the whole ladder — codec speed never
 *    perturbs link timing, only the codec-charged makespan;
 *  - the free point's codec-charged makespan equals the combined one
 *    bit-for-bit (a free unit is an exact no-op);
 *  - the codec-charged makespan grows monotonely as the unit slows,
 *    always within [combined, combined + serialized codec charge].
 *
 * Emits "ABLATION OK"/"ABLATION FAILED" and exits nonzero on any
 * violated invariant, so the sweep doubles as a regression gate.
 */

#include <cstdio>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/controller.h"
#include "core/window_pass.h"
#include "obs/report.h"
#include "workloads/patterns.h"

using namespace buddy;

namespace {

/** One rung of the codec-speed ladder. */
struct SpeedPoint
{
    const char *name;
    timing::CodecTiming timing;
};

/** Cycle totals of the write+read pass under one CodecTiming. */
struct PassTotals
{
    u64 serial = 0;
    u64 windowed = 0;
    u64 combined = 0;
    u64 codecCharged = 0;
    u64 codecSerial = 0;
};

/** Write the compressible set and read it back once, untimed, then
 *  re-time both plans (core/window_pass.h) per rung of @p ladder. */
std::vector<PassTotals>
sweep(std::size_t entries, u64 window, const std::string &codec,
      const std::vector<SpeedPoint> &ladder)
{
    BuddyConfig cfg;
    cfg.codec = codec;
    cfg.deviceBytes = entries * kEntryBytes + 8 * MiB;
    cfg.linkWindow = window;
    BuddyController gpu(cfg);

    const auto id = gpu.allocate("set", entries * kEntryBytes,
                                 CompressionTarget::Ratio2);
    if (!id) {
        std::fprintf(stderr, "ablation allocation failed\n");
        std::exit(1);
    }
    const Addr va = gpu.allocations().at(*id).va;

    // Pattern-bucket payloads compress under every library codec, so
    // the write pass pays compression and the read pass decompression
    // — the two CodecWork directions the ladder is ablating.
    Rng rng(43);
    std::vector<u8> data(entries * kEntryBytes);
    for (std::size_t e = 0; e < entries; ++e)
        fillBucketEntry(rng, static_cast<unsigned>(e % kPatternBuckets),
                        data.data() + e * kEntryBytes);

    std::vector<u8> readback(entries * kEntryBytes);
    AccessBatch writes(entries), reads(entries);
    for (std::size_t e = 0; e < entries; ++e) {
        writes.write(va + e * kEntryBytes, data.data() + e * kEntryBytes);
        reads.read(va + e * kEntryBytes, readback.data() + e * kEntryBytes);
    }
    gpu.run(writes, false);
    gpu.run(reads, false);

    std::vector<PassTotals> totals;
    for (const SpeedPoint &p : ladder) {
        BatchSummary s;
        // Each plan is its own latency-overlap scope: fresh windows.
        for (const AccessBatch *pass : {&writes, &reads}) {
            timing::WindowGroup windows(
                gpu.deviceStore().makeWindow(window),
                gpu.carveOut().store().makeWindow(window), p.timing);
            std::vector<AccessInfo> infos = pass->results();
            windowBatch(pass->ops(), infos, windows, s);
        }
        totals.push_back({s.totalCycles(), s.windowTotalCycles(),
                          s.combinedWindowCycles,
                          s.codecChargedWindowCycles, s.codecCycles});
    }
    return totals;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags cli("bench_ablation_codec_timing",
                 "ablation: codec-unit speed vs. the charged makespan");
    cli.addUint("entries", 8192, "entries in the timed working set");
    cli.addString("codec", "bpc", "codec the pass compresses with");
    addWindowFlag(cli); // --window, default 32
    addJsonFlag(cli);
    if (!cli.parse(argc, argv))
        return 0;

    const std::size_t entries =
        static_cast<std::size_t>(cli.uintOf("entries"));
    const std::string codec = cli.stringOf("codec");
    const u64 window = windowOf(cli);

    std::printf("=== Ablation: codec-unit speed (CodecTiming sweep, "
                "W=%llu) ===\n\n",
                (unsigned long long)window);

    // Free through hardware-class (the registry defaults live in this
    // range) out to software-LZ4-class: ~a hundred cycles per 128 B
    // entry, deep pipeline. Both fields grow monotonely down the
    // ladder, so the charged makespan must too.
    const std::vector<SpeedPoint> ladder = {
        {"free", {0, 1}},          {"hw-fast", {1, 2}},
        {"hw-default", {2, 4}},    {"hw-slow", {8, 4}},
        {"sw-fast", {32, 8}},      {"sw-lz4", {128, 8}},
    };

    Table t({"codec unit", "cyc/entry", "depth", "comb-total",
             "codec-charged", "codec-serial", "vs comb"});
    const std::vector<PassTotals> totals =
        sweep(entries, window, codec, ladder);
    bool ok = true;
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        const SpeedPoint &p = ladder[i];
        const PassTotals &r = totals[i];
        t.addRow({p.name,
                  strfmt("%llu",
                         (unsigned long long)p.timing.cyclesPerEntry),
                  strfmt("%llu",
                         (unsigned long long)p.timing.pipelineDepth),
                  strfmt("%llu", (unsigned long long)r.combined),
                  strfmt("%llu", (unsigned long long)r.codecCharged),
                  strfmt("%llu", (unsigned long long)r.codecSerial),
                  strfmt("%.2fx", static_cast<double>(r.codecCharged) /
                                      static_cast<double>(r.combined))});

        // Structural guarantees, rung by rung.
        const PassTotals &f = totals.front();
        if (r.serial != f.serial || r.windowed != f.windowed ||
            r.combined != f.combined) {
            std::printf("FAIL: %s perturbed the link totals\n", p.name);
            ok = false;
        }
        if (p.timing.free() && r.codecCharged != r.combined) {
            std::printf("FAIL: free codec charged %llu != combined "
                        "%llu\n",
                        (unsigned long long)r.codecCharged,
                        (unsigned long long)r.combined);
            ok = false;
        }
        if (i > 0 && r.codecCharged < totals[i - 1].codecCharged) {
            std::printf("FAIL: %s charged less than the faster rung "
                        "above it\n",
                        p.name);
            ok = false;
        }
        if (r.codecCharged < r.combined ||
            r.codecCharged > r.combined + r.codecSerial) {
            std::printf("FAIL: %s charged %llu outside [comb, comb + "
                        "serial codec charge]\n",
                        p.name, (unsigned long long)r.codecCharged);
            ok = false;
        }
    }
    t.print();

    std::printf("\nlink totals are codec-invariant (serial %llu, "
                "win %llu, comb %llu on every rung); only the charged "
                "makespan moves. A hardware-class unit hides behind "
                "the links; a software-class unit becomes the "
                "bottleneck — the gap is the paper's case for an "
                "inline hardware codec\n",
                (unsigned long long)totals.front().serial,
                (unsigned long long)totals.front().windowed,
                (unsigned long long)totals.front().combined);

    if (!jsonPathOf(cli).empty()) {
        obs::BenchReport report("ablation_codec_timing");
        report.setValue("entries", static_cast<u64>(entries));
        report.setValue("window", window);
        report.setValue("ok", static_cast<u64>(ok ? 1 : 0));
        for (std::size_t i = 0; i < ladder.size(); ++i)
            report.setValue(std::string("charged_") + ladder[i].name,
                            totals[i].codecCharged);
        report.addTable("sweep", t);
        report.writeTo(jsonPathOf(cli));
        std::printf("wrote %s\n", jsonPathOf(cli).c_str());
    }
    std::printf("%s\n", ok ? "ABLATION OK" : "ABLATION FAILED");
    return ok ? 0 : 1;
}
