/**
 * @file
 * buddy_perf: the repository benchmark.
 *
 * One command per workload. The workload's inputs are built in-process
 * from --seed, a timed section runs for --seconds, every output is
 * checked, and the last line of standard output is one JSON object:
 * the end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1.
 *
 *   hpc-sweep        the ten HPC benchmarks of Table 1: one write of
 *                    the image, then full read sweeps, replayed batch by
 *                    batch through the sharded engine.
 *   dl-churn         the six DL benchmarks' pools: every snapshot
 *                    written, then read back (per-entry churn).
 *   service-poisson  64 trace-backed tenant sessions under continuous
 *                    admission with seeded Poisson arrivals.
 *
 * All host timing happens here, around calls into the library's public
 * functions; the library is not modified or instrumented.
 *
 * Host times are CPU time of the process, which excludes the time a
 * virtual machine's host gives to other guests. The process runs on one
 * CPU with one engine worker, so handing a batch to the worker wakes no
 * other CPU; before every set-up, every repetition and every few
 * batches it moves to the CPU that currently runs a fixed probe job
 * fastest (FastCpu), since on a shared host a CPU whose core another
 * guest is using runs up to twice as slow. A shared host only ever adds
 * time, so every batch's time is its least over the repetitions of the
 * timed section; ops_per_cpu_s and the batch latency quantiles come from
 * those least times. The traced run reports the wall-clock rate
 * (bench.wall_ops_per_s).
 *
 *   buddy_perf --workload hpc-sweep --seed 1 --seconds 10 --trace 0
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/codec_registry.h"
#include "captures.h"
#include "compress/compressor.h"
#include "engine/engine.h"
#include "engine/trace.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "perf_util.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "timing/window.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace buddy;
using namespace perfbench;

namespace {

// ------------------------------------------------------------ settings --

/** Workload sizes. Chosen so one replay takes about a second on a
 *  4-core x86 host, a timed section holds many of them, and every
 *  replay has at least ten batches beyond the reported p95. */
constexpr u64 kHpcBytesPerBench = 1 * MiB + 640 * KiB; // 16.25 MiB in all
constexpr unsigned kHpcSweeps = 2;
constexpr u64 kDlBytesPerBench = 832 * KiB;            // 4.9 MiB in all
constexpr std::size_t kReplayBatch = 1024;

constexpr std::size_t kTenants = 64;
constexpr std::size_t kServiceEntries = 256; // per allocation
constexpr unsigned kServicePasses = 2;
constexpr std::size_t kServiceBatch = 32;
constexpr unsigned kTenantInflight = 2;
constexpr unsigned kFleetInflight = 16;
constexpr double kFleetBusy = 0.8; ///< target share of busy slots

constexpr unsigned kSetupRepeats = 3;   ///< at least this many set-ups,
constexpr double kSetupSeconds = 1.5;   ///< and until this much time went
constexpr unsigned kMinReps = 3;
constexpr unsigned kLayerRounds = 3; ///< per-layer passes, least taken
constexpr unsigned kRepinEvery = 16; ///< replay batches per CPU re-pick

// ---------------------------------------------------------------- args --

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
    std::string outDir = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "buddy_perf: %s\nusage: buddy_perf --workload "
                 "hpc-sweep|dl-churn|service-poisson --seed N --seconds S "
                 "--trace 0|1 [--commit SHA] [--out-dir DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (*end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(a.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            a.trace = v[0] == '1';
        } else if (flag == "--commit") {
            a.commit = v;
        } else if (flag == "--out-dir") {
            a.outDir = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload != "hpc-sweep" && a.workload != "dl-churn" &&
        a.workload != "service-poisson")
        usage("unknown or missing --workload");
    return a;
}

// -------------------------------------------------------------- checks --

/**
 * Counts the operations the run executed and checked, and the ones
 * that failed a check. A failed aggregate check (footer totals,
 * isolation, repeatability) fails every operation it covers.
 */
struct Checks
{
    u64 attempted = 0;
    u64 failed = 0;

    /** @p ops operations ran and are covered by the checks below. */
    void ran(u64 ops) { attempted += ops; }

    /** Fail @p ops operations unless @p ok. */
    void
    expect(bool ok, u64 ops, const char *what)
    {
        if (ok)
            return;
        failed += std::max<u64>(ops, 1);
        std::fprintf(stderr, "CHECK FAILED: %s (%llu ops)\n", what,
                     static_cast<unsigned long long>(ops));
    }
};

/** Every BatchSummary field, compared exactly. */
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

/**
 * The simulated (deterministic) results of one repetition. Every
 * repetition, traced or not, must produce the same values exactly.
 */
struct SimResult
{
    BatchSummary totals;
    u64 batches = 0;
    double compressionRatio = 0.0;
    u64 serviceCycP99 = 0;   ///< per-batch max(combined, 1), nearest rank
    u64 queueDelayP50 = 0;   ///< service workload only
    u64 queueDelayP99 = 0;   ///< service workload only
    u64 metadataAccesses = 0;
    u64 metadataMisses = 0;

    bool
    operator==(const SimResult &o) const
    {
        return sameSummary(totals, o.totals) && batches == o.batches &&
               compressionRatio == o.compressionRatio &&
               serviceCycP99 == o.serviceCycP99 &&
               queueDelayP50 == o.queueDelayP50 &&
               queueDelayP99 == o.queueDelayP99 &&
               metadataAccesses == o.metadataAccesses &&
               metadataMisses == o.metadataMisses;
    }
};

/**
 * Host measurements of one timed repetition. Times are CPU time of the
 * whole process (every thread), which the kernel keeps free of the
 * time a shared host's hypervisor gives other guests; wall time is
 * kept alongside for reference.
 */
struct RepResult
{
    double seconds = 0.0;          ///< timed CPU seconds
    double wallSeconds = 0.0;      ///< wall seconds, same span
    u64 ops = 0;
    std::vector<double> batchMs;   ///< per-batch CPU ms, submit to ready
    std::vector<double> stepMs;    ///< CPU ms of each step; Σ = seconds
    double submitNs = 0.0;         ///< Σ CPU time inside submit()
    u64 cycleSum = 0;              ///< Σ per-batch max(combined, 1)
    SimResult sim;
};

// ------------------------------------------------------ replay inputs --

/**
 * A loaded capture plus the expected result of every read: the bytes
 * last written to that entry, as pointers into the loaded image (reads
 * in stream order, all repeats of one pass), and the final contents of
 * every written entry keyed by recorded allocation name.
 */
struct Inputs
{
    Capture cap;
    TraceReplayer trace;
    std::vector<const u8 *> expectedReads;
    std::map<std::string, std::vector<const u8 *>> finalContents;
    u64 nonZeroWrites = 0;
};

const u8 kZeroEntry[kEntryBytes] = {};

Capture
buildCapture(const std::string &workload, u64 seed,
             const BetweenBatches &between)
{
    if (workload == "hpc-sweep")
        return buildHpcCapture(seed, kHpcBytesPerBench, kHpcSweeps,
                               kReplayBatch, between);
    if (workload == "dl-churn")
        return buildDlCapture(seed, kDlBytesPerBench, kReplayBatch, between);
    return buildServiceCapture(seed, kServiceEntries, kServicePasses,
                               kServiceBatch, between);
}

/**
 * Walk the capture once on a throwaway engine (warm-up: codec registry,
 * first touch of the image and of the engine's stores) and derive the
 * expected read results. The first few batches are executed.
 */
void
deriveExpectations(Inputs &in, const EngineConfig &cfg)
{
    ShardedEngine eng(cfg);
    TraceCursor cursor(in.trace, eng);
    std::map<Addr, const u8 *> last;
    AccessBatch plan;
    std::vector<u8> buf;
    for (u64 b = 0; cursor.next(plan, buf); ++b) {
        for (const AccessRequest &op : plan.ops()) {
            if (op.kind == AccessKind::Write) {
                last[op.va] = op.src;
                if (!entryIsZero(op.src))
                    ++in.nonZeroWrites;
            } else if (op.kind == AccessKind::Read) {
                const auto it = last.find(op.va);
                in.expectedReads.push_back(it == last.end() ? kZeroEntry
                                                            : it->second);
            }
        }
        if (b < 8)
            eng.execute(plan);
    }
    for (const auto &[id, a] : eng.allocations()) {
        auto &entries = in.finalContents[a.name];
        entries.assign(a.bytes / kEntryBytes, nullptr);
        for (u64 e = 0; e < entries.size(); ++e) {
            const auto it = last.find(a.va + e * kEntryBytes);
            if (it != last.end())
                entries[e] = it->second;
        }
    }
}

// -------------------------------------------------------- replay reps --

/** Optional attachments of one replay pass. */
struct PassOptions
{
    unsigned shards = 4;
    unsigned threads = 0; ///< engine workers; 0 = the base config's
    unsigned repeat = 1;
    bool registry = false;
    bool recorder = false;
    bool checkReads = true;
    SpanLog *spans = nullptr;
    FastCpu *cpu = nullptr; ///< re-picked between batches, untimed
};

/**
 * Replay the capture through a fresh engine batch by batch
 * (TraceCursor::next + ShardedEngine::submit + wait) and check every
 * read. Engine construction and cursor binding are not timed.
 */
RepResult
replayPass(Inputs &in, const EngineConfig &base, const PassOptions &opt,
           Checks &checks,
           const std::function<void(const AccessBatch &)> &onBatch = {})
{
    EngineConfig cfg = base;
    cfg.shards = opt.shards;
    cfg.threads = std::min(opt.threads ? opt.threads : cfg.threads,
                           opt.shards);
    cfg.shard.deviceBytes = base.shard.deviceBytes * base.shards / opt.shards;
    ShardedEngine eng(cfg);
    obs::MetricRegistry registry;
    if (opt.registry)
        eng.attachMetrics(registry);
    TraceRecorderSink recorder;
    if (opt.recorder)
        eng.attachSink(&recorder);
    TraceCursor cursor(in.trace, eng, opt.repeat);

    SpanLog none(false);
    SpanLog &spans = opt.spans ? *opt.spans : none;
    RepResult r;
    std::vector<u64> batchCycles;
    AccessBatch plan;
    std::vector<u8> buf;
    u64 busyNs = 0, submitNs = 0, readIdx = 0, badReads = 0;
    const u64 wall0 = nowNs();
    for (u64 b = 0;; ++b) {
        if (opt.cpu && b > 0 && b % kRepinEvery == 0)
            opt.cpu->pinFastest();
        const u64 root = spans.begin("batch", 0, b + 1);
        const u64 t0 = cpuNowNs();
        const u64 sNext = spans.begin("trace.cursor_next", root, b + 1);
        const bool more = cursor.next(plan, buf);
        spans.end(sNext);
        if (!more) {
            spans.end(root);
            break;
        }
        const u64 sSubmit = spans.begin("engine.submit", root, b + 1);
        const u64 t1 = cpuNowNs();
        auto fut = eng.submit(plan);
        const u64 t2 = cpuNowNs();
        spans.end(sSubmit);
        const u64 sWait = spans.begin("engine.wait", root, b + 1);
        const BatchSummary s = fut.get();
        const u64 t3 = cpuNowNs();
        spans.end(sWait);
        busyNs += t3 - t0;
        submitNs += t2 - t1;
        r.batchMs.push_back(static_cast<double>(t3 - t1) / 1e6);
        r.stepMs.push_back(static_cast<double>(t3 - t0) / 1e6);
        r.sim.totals.accumulate(s);
        ++r.sim.batches;
        batchCycles.push_back(std::max<u64>(s.combinedWindowCycles, 1));
        r.cycleSum += batchCycles.back();
        if (onBatch)
            onBatch(plan);

        if (opt.checkReads) {
            const u64 sCheck = spans.begin("bench.check_reads", root, b + 1);
            for (const AccessRequest &op : plan.ops()) {
                if (op.kind != AccessKind::Read)
                    continue;
                if (readIdx == in.expectedReads.size())
                    readIdx = 0; // next repeat of the stream
                if (std::memcmp(op.dst, in.expectedReads[readIdx++],
                                kEntryBytes) != 0)
                    ++badReads;
            }
            spans.end(sCheck);
        }
        spans.end(root);
    }
    r.seconds = static_cast<double>(busyNs) / 1e9;
    r.wallSeconds = static_cast<double>(nowNs() - wall0) / 1e9;
    r.submitNs = static_cast<double>(submitNs);
    r.ops = r.sim.totals.operations();
    r.sim.compressionRatio = eng.compressionRatio();
    r.sim.serviceCycP99 = quantile(batchCycles, 0.99);
    r.sim.metadataAccesses = eng.metadataAccesses();
    r.sim.metadataMisses = eng.metadataMisses();
    if (opt.checkReads) {
        checks.expect(badReads == 0, badReads,
                      "replayed read differs from the bytes last written");
    }
    checks.ran(r.ops);
    if (opt.repeat == 1) {
        // Metadata hits are per-shard cache state: exact against the
        // footer only at the recording's shard count.
        const TraceTotals &want = in.trace.recordedTotals();
        const bool same = cfg.shards == base.shards
                              ? sameSummary(r.sim.totals, want.summary)
                              : isolationEqual(r.sim.totals, want.summary);
        checks.expect(same && r.sim.batches == want.batches, r.ops,
                      "replay totals differ from the capture footer");
    }
    return r;
}

// ------------------------------------------------------ service fleet --

/** Completion CPU-time and per-batch simulated-cycle log of one fleet
 *  run. */
class CompletionLog : public obs::BatchObserver
{
  public:
    void
    onBatchComplete(const obs::BatchRecord &record) override
    {
        doneNs.push_back(cpuNowNs());
        cycles.push_back(
            std::max<u64>(record.summary.combinedWindowCycles, 1));
    }

    std::vector<u64> doneNs;
    std::vector<u64> cycles;
};

/** Service-fleet parameters derived in set-up. */
struct FleetPlan
{
    u64 meanGapCycles = 1;
    BatchSummary solo; ///< one tenant's stream replayed alone
    std::size_t tenants = kTenants;
    unsigned tenantInflight = kTenantInflight;
};

/** Mean per-batch service cycles of one tenant's stream, replayed
 *  alone (its totals become the isolation reference). */
u64
meanServiceCycles(Inputs &in, const EngineConfig &cfg, BatchSummary &solo,
                  Checks &checks)
{
    const RepResult r = replayPass(in, cfg, PassOptions{}, checks);
    solo = r.sim.totals;
    return r.sim.batches ? r.cycleSum / r.sim.batches : 1;
}

/**
 * Run one fleet: @p plan.tenants sessions streaming the capture under
 * continuous admission with seeded Poisson arrivals, round-robin QoS.
 * Times ServiceScheduler::run; checks isolation against the solo
 * replay and reads every tenant's final contents back.
 */
RepResult
fleetPass(Inputs &in, const EngineConfig &cfg, const FleetPlan &plan,
          u64 seed, bool registryOn, Checks &checks, bool check = true)
{
    ShardedEngine eng(cfg);
    obs::MetricRegistry registry;
    if (registryOn)
        eng.attachMetrics(registry);
    CompletionLog log;
    eng.setBatchObserver(&log);

    ServiceConfig scfg;
    scfg.seed = seed;
    scfg.maxInflightPerTenant = plan.tenantInflight;
    scfg.maxInflightTotal = kFleetInflight;
    scfg.policy = SchedPolicy::RoundRobin;
    scfg.admission = AdmissionMode::Continuous;
    ServiceScheduler sched(eng, scfg);
    for (std::size_t i = 0; i < plan.tenants; ++i) {
        auto session = std::make_unique<TenantSession>(
            "t" + std::to_string(i), in.trace, eng);
        if (plan.tenants > 1)
            session->setArrivals(ArrivalSpec::poisson(
                engine::splitmix64(seed ^ (0xa221ull + i)),
                plan.meanGapCycles));
        sched.addSession(std::move(session));
    }
    if (registryOn)
        sched.attachMetrics(registry);

    const u64 wall0 = nowNs();
    const u64 t0 = cpuNowNs();
    const ServiceReport rep = sched.run();
    const u64 t1 = cpuNowNs();

    RepResult r;
    r.seconds = static_cast<double>(t1 - t0) / 1e9;
    r.wallSeconds = static_cast<double>(nowNs() - wall0) / 1e9;
    // A batch's time is the gap since the previous completion; the
    // drain after the last one is the final step.
    u64 prev = t0;
    for (const u64 t : log.doneNs) {
        r.batchMs.push_back(static_cast<double>(t - prev) / 1e6);
        prev = t;
    }
    r.stepMs = r.batchMs;
    r.stepMs.push_back(static_cast<double>(t1 - prev) / 1e6);
    obs::LatencyHistogram queue;
    for (const TenantReport &tr : rep.tenants) {
        r.sim.totals.accumulate(tr.totals);
        r.sim.batches += tr.batches;
        queue.merge(tr.queueDelay);
    }
    r.ops = r.sim.totals.operations();
    r.sim.compressionRatio = eng.compressionRatio();
    r.sim.serviceCycP99 = quantile(log.cycles, 0.99);
    r.sim.queueDelayP50 = queue.percentile(500);
    r.sim.queueDelayP99 = queue.percentile(990);
    r.sim.metadataAccesses = eng.metadataAccesses();
    r.sim.metadataMisses = eng.metadataMisses();
    if (!check)
        return r;
    checks.ran(r.ops);

    // Isolation: every tenant's totals equal the solo replay's.
    for (const TenantReport &tr : rep.tenants)
        checks.expect(tr.finished && isolationEqual(tr.totals, plan.solo),
                      tr.totals.operations(),
                      "tenant totals differ from its solo replay");

    // Byte-for-byte: read every tenant's final contents back.
    AccessBatch readback;
    std::vector<u8> got;
    u64 bad = 0, reads = 0;
    for (const auto &[id, a] : eng.allocations()) {
        const std::string recorded = a.name.substr(a.name.find('/') + 1);
        const auto &want = in.finalContents.at(recorded);
        readback.clear();
        got.assign(want.size() * kEntryBytes, 0);
        for (u64 e = 0; e < want.size(); ++e)
            if (want[e] != nullptr)
                readback.read(a.va + e * kEntryBytes,
                              got.data() + e * kEntryBytes);
        eng.execute(readback);
        for (u64 e = 0; e < want.size(); ++e) {
            if (want[e] == nullptr)
                continue;
            ++reads;
            if (std::memcmp(got.data() + e * kEntryBytes, want[e],
                            kEntryBytes) != 0)
                ++bad;
        }
    }
    checks.expect(bad == 0, bad,
                  "tenant contents differ from the bytes last written");
    checks.ran(reads);
    return r;
}

// ----------------------------------------------------------- layers --

double
pct(u64 part, u64 whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}


/** One op's inputs to the windowed timing replay, as the engine saw it. */
struct OpWork
{
    timing::LinkDir dir;
    timing::CodecWork work;
    u8 deviceSectors;
    u8 buddySectors;
};

double
nsPerOp(double seconds, u64 ops)
{
    return ops ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
}

/**
 * The traced run's per-layer passes. Each layer's public entry point
 * is timed in its own pass over the workload's batches; a wrapper's
 * self time is its time minus the measured time of what it calls.
 * For service-poisson the passes cover the same batches as one fleet
 * (the tenant stream repeated kTenants times).
 */
void
measureLayers(Inputs &in, const EngineConfig &cfg, const FleetPlan *fleet,
              u64 seed, FastCpu &cpu, SpanLog &spans, Checks &checks,
              std::map<std::string, Metric> &m)
{
    const unsigned repeat = fleet ? kTenants : 1;
    const u64 ops = in.cap.ops * repeat;
    const u64 batches = in.cap.batches * repeat;

    // trace: loadImage, then TraceCursor::next alone.
    u64 span = spans.begin("layer.trace.load");
    std::vector<double> loads;
    for (unsigned k = 0; k < 3; ++k) {
        std::vector<u8> copy = in.cap.image;
        TraceReplayer t;
        const u64 t0 = cpuNowNs();
        t.loadImage(std::move(copy));
        loads.push_back(static_cast<double>(cpuNowNs() - t0));
    }
    spans.end(span);
    m["trace.load_ns_per_op"] = {least(loads) / in.cap.ops, "ns"};
    {
        ShardedEngine eng(cfg);
        TraceCursor cursor(in.trace, eng, repeat);
        AccessBatch plan;
        std::vector<u8> buf;
        span = spans.begin("layer.trace.cursor");
        const u64 t0 = cpuNowNs();
        while (cursor.next(plan, buf)) {
        }
        const u64 t1 = cpuNowNs();
        spans.end(span);
        m["trace.cursor_ns_per_op"] = {
            static_cast<double>(t1 - t0) / static_cast<double>(ops), "ns"};
    }

    // The engine (4 shards: the reference; 1 shard; 4 shards on one
    // worker per core, timed by the wall clock for the shard speed-up;
    // registry attached; trace recorder attached), the standalone
    // controller and the
    // scheduler, interleaved over kLayerRounds rounds, least taken.
    // The first reference pass also records what the timing and codec
    // passes replay.
    std::vector<OpWork> work;
    std::vector<std::size_t> batchSizes;
    std::vector<const u8 *> payloads; // non-zero writes, one stream pass
    u64 encodes = 0, decodes = 0;
    const auto record = [&](const AccessBatch &b) {
        batchSizes.push_back(b.size());
        for (std::size_t i = 0; i < b.size(); ++i) {
            const AccessRequest &op = b.ops()[i];
            const AccessInfo &info = b.result(i);
            const bool write = op.kind == AccessKind::Write;
            timing::CodecWork w = timing::CodecWork::None;
            if (info.codecCycles > 0) {
                w = write ? timing::CodecWork::Compress
                          : timing::CodecWork::Decompress;
                ++(write ? encodes : decodes);
                if (write && batchSizes.size() <= in.cap.batches)
                    payloads.push_back(op.src);
            }
            work.push_back({write ? timing::LinkDir::Write
                                  : timing::LinkDir::Read,
                            w, static_cast<u8>(info.deviceSectors),
                            static_cast<u8>(info.buddySectors)});
        }
    };

    BuddyConfig ccfg = cfg.shard;
    ccfg.deviceBytes = cfg.shard.deviceBytes * cfg.shards;
    const auto corePass = [&](BuddyController &ctl) {
        TraceCursor cursor(in.trace, ctl, repeat);
        AccessBatch plan;
        std::vector<u8> buf;
        BatchSummary totals;
        std::vector<double> stepMs;
        while (cursor.next(plan, buf)) {
            const u64 t0 = cpuNowNs();
            totals.accumulate(ctl.execute(plan));
            stepMs.push_back(static_cast<double>(cpuNowNs() - t0) / 1e6);
        }
        return std::make_pair(stepMs, totals);
    };

    // Replays stream the capture as one closed-loop tenant with one
    // batch in flight; service-poisson runs its fleet.
    FleetPlan solo;
    solo.tenants = 1;
    solo.tenantInflight = 1;
    const FleetPlan &plan = fleet ? *fleet : solo;

    // Per-step least CPU ms over the rounds, as in the timed section;
    // wall seconds and submit time as whole-pass values.
    std::vector<double> t4, t1, t4r, t4t, tCore, tSched, tSchedReg;
    std::vector<double> t1Wall, t4pWall, submit;
    bool sameSteps = true;
    RepResult e4;
    RepResult sv;
    for (unsigned round = 0; round < kLayerRounds; ++round) {
        PassOptions opt;
        opt.repeat = repeat;
        opt.cpu = &cpu;
        span = spans.begin("layer.engine.4shard");
        const RepResult r4 =
            replayPass(in, cfg, opt, checks,
                       round == 0 ? std::function<void(const AccessBatch &)>(
                                        record)
                                  : nullptr);
        spans.end(span);
        opt.shards = 1;
        span = spans.begin("layer.engine.1shard");
        const RepResult r1 = replayPass(in, cfg, opt, checks);
        spans.end(span);
        opt.shards = 4;
        opt.threads = std::min(4u, onlineCpus());
        opt.cpu = nullptr;
        span = spans.begin("layer.engine.parallel");
        const RepResult r4p =
            cpu.unpinned([&] { return replayPass(in, cfg, opt, checks); });
        spans.end(span);
        opt.threads = 0;
        opt.cpu = &cpu;
        opt.registry = true;
        span = spans.begin("layer.engine.registry");
        const RepResult r4r = replayPass(in, cfg, opt, checks);
        spans.end(span);
        opt.registry = false;
        opt.recorder = true;
        span = spans.begin("layer.engine.recorder");
        const RepResult r4t = replayPass(in, cfg, opt, checks);
        spans.end(span);
        for (const RepResult *r : {&r1, &r4p, &r4r, &r4t})
            checks.expect(r->sim.totals.operations() == ops &&
                              isolationEqual(r->sim.totals, r4.sim.totals),
                          ops, "engine variants disagree on traffic totals");

        BuddyController ctl(ccfg);
        cpu.pinFastest();
        span = spans.begin("layer.core.execute");
        const auto [coreMs, coreTotals] = corePass(ctl);
        spans.end(span);
        checks.expect(isolationEqual(coreTotals, r4.sim.totals), ops,
                      "controller totals differ from the engine's");

        solo.solo = r4.sim.totals;
        cpu.pinFastest();
        span = spans.begin("layer.service.run");
        const RepResult rs = fleetPass(in, cfg, plan, seed, false, checks,
                                       fleet != nullptr && round == 0);
        spans.end(span);
        if (fleet) {
            span = spans.begin("layer.service.registry");
            sameSteps &= keepLeast(
                tSchedReg,
                fleetPass(in, cfg, plan, seed, true, checks, false).stepMs);
            spans.end(span);
        }
        if (round == 0) {
            e4 = r4;
            sv = rs;
        }
        sameSteps &= keepLeast(t4, r4.stepMs) && keepLeast(t1, r1.stepMs) &&
                     keepLeast(t4r, r4r.stepMs) &&
                     keepLeast(t4t, r4t.stepMs) &&
                     keepLeast(tCore, coreMs) && keepLeast(tSched, rs.stepMs);
        t1Wall.push_back(r1.wallSeconds);
        t4pWall.push_back(r4p.wallSeconds);
        submit.push_back(r4.submitNs);
    }
    checks.expect(sameSteps, ops, "layer passes differ in step count");
    const double e4S = totalSeconds(t4);
    const double e1S = totalSeconds(t1);
    BuddyController ctl(ccfg); // timing windows and codec source

    // timing: WindowGroup::issue over the recorded per-op work.
    u64 charged = 0;
    span = spans.begin("layer.timing.issue");
    const u64 tt0 = cpuNowNs();
    std::size_t next = 0;
    for (const std::size_t n : batchSizes) {
        const u64 w = cfg.shard.linkWindow;
        timing::WindowGroup group(ctl.deviceStore().makeWindow(w),
                                  ctl.carveOut().store().makeWindow(w),
                                  ctl.codecTiming());
        for (std::size_t i = next; i < next + n; ++i)
            charged += group
                           .issue(work[i].dir,
                                  u64{work[i].deviceSectors} * kSectorBytes,
                                  u64{work[i].buddySectors} * kSectorBytes,
                                  work[i].work)
                           .codecCharged;
        next += n;
    }
    const double timingS = static_cast<double>(cpuNowNs() - tt0) / 1e9;
    spans.end(span);
    checks.expect(charged == e4.sim.totals.codecChargedWindowCycles, ops,
                  "timing replay differs from the engine's windowed totals");

    // compress: compressInto over the written non-zero entries, then
    // decompressFrom over what it produced (compressed entries only,
    // as the read path decodes them). Small captures loop.
    const Compressor &codec = ctl.codec();
    const std::size_t n = payloads.size();
    const unsigned loops =
        n ? static_cast<unsigned>(std::max<std::size_t>(1, 200000 / n)) : 0;
    std::vector<u8> stored(n * kMaxEncodedBytes);
    std::vector<std::size_t> bits(n);
    CompressionScratch scratch;
    span = spans.begin("layer.compress.encode");
    u64 t0 = cpuNowNs();
    for (unsigned l = 0; l < loops; ++l)
        for (std::size_t i = 0; i < n; ++i)
            bits[i] = codec.compressInto(
                payloads[i], stored.data() + i * kMaxEncodedBytes, scratch);
    const double encodeNs = static_cast<double>(cpuNowNs() - t0) /
                            static_cast<double>(std::max<u64>(1, n * loops));
    spans.end(span);
    u8 out[kEntryBytes];
    u64 decoded = 0, sink = 0;
    span = spans.begin("layer.compress.decode");
    t0 = cpuNowNs();
    for (unsigned l = 0; l < loops; ++l)
        for (std::size_t i = 0; i < n; ++i)
            if (bits[i] <= kEntryBytes * 8) {
                codec.decompressFrom(stored.data() + i * kMaxEncodedBytes,
                                     bits[i], out);
                sink += out[i % kEntryBytes];
                ++decoded;
            }
    const double decodeNs = static_cast<double>(cpuNowNs() - t0) /
                            static_cast<double>(std::max<u64>(1, decoded));
    spans.end(span);
    u64 badDecodes = 0, storedBits = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (bits[i] > kEntryBytes * 8) {
            storedBits += kEntryBytes * 8; // stored raw
            continue;
        }
        storedBits += bits[i];
        codec.decompressFrom(stored.data() + i * kMaxEncodedBytes, bits[i],
                             out);
        badDecodes += std::memcmp(out, payloads[i], kEntryBytes) != 0;
    }
    checks.expect(badDecodes == 0, badDecodes,
                  "decoded entry differs from the encoded one");
    std::printf("layers: %u rounds, decode checksum %llu\n", kLayerRounds,
                static_cast<unsigned long long>(sink));
    const u64 writesPerPass = e4.sim.totals.writes / repeat;

    const double registryS = fleet
                                 ? totalSeconds(tSchedReg) - totalSeconds(tSched)
                                 : totalSeconds(t4r) - e4S;

    const double coreNs = nsPerOp(totalSeconds(tCore), ops);
    const double timingNs = nsPerOp(timingS, ops);
    const double submitNs = least(submit) / static_cast<double>(ops);
    m["compress.encode_ns_per_entry"] = {encodeNs, "ns"};
    m["compress.decode_ns_per_entry"] = {decodeNs, "ns"};
    m["compress.bits_per_entry"] = {
        writesPerPass ? static_cast<double>(storedBits) /
                            static_cast<double>(writesPerPass)
                      : 0.0,
        "bit"};
    m["core.execute_ns_per_op"] = {coreNs, "ns"};
    m["core.self_ns_per_op"] = {
        coreNs - (encodeNs * static_cast<double>(encodes) +
                  decodeNs * static_cast<double>(decodes)) /
                     static_cast<double>(ops) -
            timingNs,
        "ns"};
    m["core.metadata_hit_pct"] = {
        pct(e4.sim.metadataAccesses - e4.sim.metadataMisses,
            e4.sim.metadataAccesses),
        "%"};
    m["timing.issue_ns_per_op"] = {timingNs, "ns"};
    m["timing.exposed_codec_pct"] = {
        pct(e4.sim.totals.codecChargedWindowCycles -
                e4.sim.totals.combinedWindowCycles,
            e4.sim.totals.codecChargedWindowCycles),
        "%"};
    m["engine.submit_ns_per_op"] = {submitNs, "ns"};
    m["engine.overhead_ns_per_op"] = {nsPerOp(e4S, ops) - coreNs, "ns"};
    m["engine.shard_speedup"] = {least(t1Wall) / least(t4pWall), "x"};
    m["trace.record_ns_per_op"] = {nsPerOp(totalSeconds(t4t) - e4S, ops),
                                   "ns"};
    m["service.self_ns_per_batch"] = {
        (totalSeconds(tSched) - e4S) * 1e9 / static_cast<double>(batches),
        "ns"};
    m["service.queue_delay_cyc_p50"] = {
        static_cast<double>(sv.sim.queueDelayP50), "cyc"};
    m["service.queue_delay_cyc_p99"] = {
        static_cast<double>(sv.sim.queueDelayP99), "cyc"};
    m["obs.registry_ns_per_op"] = {nsPerOp(registryS, ops), "ns"};
    m["bench.layer_coverage_pct"] = {
        100.0 * (coreNs + timingNs + submitNs) / nsPerOp(e1S, ops), "%"};
}

// ------------------------------------------------------------- set-up --

/**
 * Build inputs once; @p seconds receives the set-up CPU time, less the
 * time spent re-picking the CPU between recorded batches.
 */
std::unique_ptr<Inputs>
setUp(const std::string &workload, u64 seed, FastCpu &cpu, double &seconds)
{
    u64 repickNs = 0;
    const auto repick = [&] {
        const u64 t = cpuNowNs();
        cpu.pinFastest();
        repickNs += cpuNowNs() - t;
    };
    const u64 t0 = cpuNowNs();
    auto in = std::make_unique<Inputs>();
    in->cap = buildCapture(workload, seed, repick);
    in->trace.loadImage(in->cap.image);
    const EngineConfig cfg = engineConfig(
        workload == "service-poisson" ? in->cap.footprintBytes * kTenants
                                      : in->cap.footprintBytes);
    {
        // Engine construction and cursor binding, as every repetition
        // pays them.
        ShardedEngine eng(cfg);
        TraceCursor cursor(in->trace, eng);
    }
    seconds = static_cast<double>(cpuNowNs() - t0 - repickNs) / 1e9;
    return in;
}

// ------------------------------------------------------------ reports --

/**
 * A timed section. A shared host only ever adds time to a step, so each
 * step's (and batch's) host time is its least over the repetitions,
 * and the rate and latencies come from those least times.
 */
struct Timed
{
    std::vector<RepResult> reps;
    std::vector<double> bestStepMs;
    std::vector<double> bestBatchMs;
    std::vector<double> probeNs; ///< FastCpu's probe time, per repetition
    double opsPerS = 0.0;     ///< ops / Σ bestStepMs
    double wallOpsPerS = 0.0; ///< median of per-repetition wall rates
};


double
opsPerSecond(const RepResult &r)
{
    return r.seconds > 0 ? static_cast<double>(r.ops) / r.seconds : 0.0;
}

double
wallOpsPerSecond(const RepResult &r)
{
    return r.wallSeconds > 0 ? static_cast<double>(r.ops) / r.wallSeconds
                             : 0.0;
}

/**
 * Repeat @p pass until @p seconds of wall time have gone (at least
 * kMinReps times); the simulated results of every repetition must
 * match the first exactly.
 */
template <typename Pass>
Timed
timedSection(double seconds, FastCpu &cpu, Checks &checks,
             const SimResult *reference, Pass &&pass)
{
    Timed t;
    const u64 start = nowNs();
    while (t.reps.size() < kMinReps ||
           static_cast<double>(nowNs() - start) / 1e9 < seconds) {
        cpu.pinFastest();
        t.probeNs.push_back(static_cast<double>(cpu.probeNs()));
        t.reps.push_back(pass());
        const RepResult &r = t.reps.back();
        const SimResult &want = reference ? *reference : t.reps.front().sim;
        checks.expect(r.sim == want, r.ops,
                      "simulated results differ between repetitions");
        checks.expect(keepLeast(t.bestStepMs, r.stepMs) &&
                          keepLeast(t.bestBatchMs, r.batchMs),
                      r.ops, "step count differs between repetitions");
    }
    const double bestS = totalSeconds(t.bestStepMs);
    t.opsPerS =
        bestS > 0 ? static_cast<double>(t.reps.front().ops) / bestS : 0.0;
    std::vector<double> wallRates;
    for (const RepResult &r : t.reps)
        wallRates.push_back(wallOpsPerSecond(r));
    t.wallOpsPerS = median(wallRates);
    return t;
}

double
perOp(double ns, u64 ops)
{
    return ops ? ns / static_cast<double>(ops) : 0.0;
}

void
printEnv(const Args &a)
{
#ifdef __OPTIMIZE__
    const int optimized = 1;
#else
    const int optimized = 0;
#endif
    std::printf("env: compiler=\"%s\" build_type=%s optimized=%d nproc=%u "
                "commit=%s\n",
                __VERSION__, PERFBENCH_BUILD_TYPE, optimized, onlineCpus(),
                a.commit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    printEnv(args);
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "buddy_perf: unoptimized build; refusing to "
                         "report timings\n");
    return 3;
#endif
    // One CPU at a time for the whole run: the engine's worker and the
    // submitting thread hand batches over without waking another
    // (virtual) CPU.
    FastCpu cpu;
    const bool service = args.workload == "service-poisson";
    Checks checks;
    std::map<std::string, Metric> metrics;

    // Set-up, repeated: capture build + load + engine construction.
    // Every repetition must yield the same image byte for byte.
    std::vector<double> setupTimes;
    std::unique_ptr<Inputs> in;
    const u64 setupStart = nowNs();
    while (setupTimes.size() < kSetupRepeats ||
           static_cast<double>(nowNs() - setupStart) / 1e9 < kSetupSeconds) {
        double s = 0.0;
        cpu.pinFastest();
        auto next = setUp(args.workload, args.seed, cpu, s);
        setupTimes.push_back(s);
        if (in)
            checks.expect(next->cap.image == in->cap.image, next->cap.ops,
                          "capture differs between set-up repetitions");
        in = std::move(next);
    }
    const double setupS = median(setupTimes);
    const EngineConfig cfg = engineConfig(
        service ? in->cap.footprintBytes * kTenants : in->cap.footprintBytes);
    deriveExpectations(*in, cfg);

    std::printf("workload %s seed %llu: %llu recorded ops in %llu batches, "
                "%.1f MiB logical, set-up %.3f s (median of %zu)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(in->cap.ops),
                static_cast<unsigned long long>(in->cap.batches),
                static_cast<double>(in->cap.footprintBytes) / MiB, setupS,
                setupTimes.size());

    // Service fleet plan: the arrival rate that keeps kFleetBusy of the
    // fleet's slots busy in simulated time, from the solo replay.
    FleetPlan fleet;
    if (service) {
        const u64 s = meanServiceCycles(*in, cfg, fleet.solo, checks);
        fleet.meanGapCycles = std::max<u64>(
            1, static_cast<u64>(std::llround(
                   static_cast<double>(kTenants) * static_cast<double>(s) /
                   (kFleetBusy * kFleetInflight))));
        std::printf("fleet: %zu tenants, mean service %llu cyc/batch, "
                    "poisson mean gap %llu cyc per tenant\n",
                    kTenants, static_cast<unsigned long long>(s),
                    static_cast<unsigned long long>(fleet.meanGapCycles));
    }

    SpanLog spans(args.trace);
    auto runTimed = [&](double seconds, SpanLog *log,
                        const SimResult *reference) {
        if (service)
            return timedSection(seconds, cpu, checks, reference, [&] {
                const u64 id = log ? log->begin("service.run") : 0;
                RepResult r = fleetPass(*in, cfg, fleet, args.seed, true,
                                        checks);
                if (log)
                    log->end(id);
                return r;
            });
        PassOptions opt;
        opt.spans = log;
        opt.cpu = &cpu;
        return timedSection(seconds, cpu, checks, reference,
                            [&] { return replayPass(*in, cfg, opt, checks); });
    };

    if (!args.trace) {
        const Timed t = runTimed(args.seconds, nullptr, nullptr);
        const std::vector<double> &batchMs = t.bestBatchMs;
        const SimResult &sim = t.reps.front().sim;
        const u64 ops = sim.totals.operations();
        std::vector<double> rates, wallRates;
        for (const RepResult &r : t.reps) {
            rates.push_back(opsPerSecond(r));
            wallRates.push_back(wallOpsPerSecond(r));
        }
        std::printf("timed: %zu repetitions, %llu ops each, %zu batches "
                    "(%zu beyond p95); least time of each over the "
                    "repetitions: %.0f ops per CPU second; %u CPU moves, "
                    "probe job median %.0f ns\n",
                    t.reps.size(), static_cast<unsigned long long>(ops),
                    batchMs.size(), batchMs.size() / 20, t.opsPerS,
                    cpu.moves(), median(t.probeNs));
        std::printf("reps: ops per CPU second min %.0f median %.0f max %.0f; "
                    "ops per wall second min %.0f median %.0f max %.0f\n",
                    quantile(rates, 0.0), median(rates), quantile(rates, 1.0),
                    quantile(wallRates, 0.0), median(wallRates),
                    quantile(wallRates, 1.0));
        metrics["setup_s"] = {setupS, "s"};
        metrics["ops_per_cpu_s"] = {t.opsPerS, "1/s"};
        metrics["batch_cpu_ms_p50"] = {quantile(batchMs, 0.50), "ms"};
        metrics["batch_cpu_ms_p95"] = {quantile(batchMs, 0.95), "ms"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MiB"};
        metrics["compression_ratio"] = {sim.compressionRatio, "x"};
        metrics["sim_cycles_per_op"] = {
            perOp(static_cast<double>(sim.totals.codecChargedWindowCycles),
                  ops),
            "cyc"};
    } else {
        // Untraced and traced halves of the timed section: the gap is
        // the tracing overhead, and their simulated results must agree.
        const Timed plain = runTimed(args.seconds / 2, nullptr, nullptr);
        const SimResult &sim = plain.reps.front().sim;
        const Timed traced = runTimed(args.seconds / 2, &spans, &sim);
        metrics["bench.trace_overhead_pct"] = {
            100.0 * (plain.opsPerS - traced.opsPerS) / plain.opsPerS, "%"};
        metrics["bench.wall_ops_per_s"] = {plain.wallOpsPerS, "1/s"};
        // Simulated, but they follow the seed's data closely (a few
        // hundred buddy accesses, one p99 batch), so they are reported
        // here rather than bounded end to end.
        metrics["core.buddy_access_pct"] = {
            pct(sim.totals.buddyAccesses, sim.totals.operations()), "%"};
        metrics["service.service_cyc_p99"] = {
            static_cast<double>(sim.serviceCycP99), "cyc"};
        measureLayers(*in, cfg, service ? &fleet : nullptr, args.seed, cpu,
                      spans, checks, metrics);
    }

    // Every reported value must be a finite number.
    for (const auto &[name, m] : metrics)
        checks.expect(std::isfinite(m.value), 1, name.c_str());
    if (args.trace) {
        const std::string path =
            args.outDir + "/spans-" + args.workload + ".json";
        if (!spans.save(path))
            std::fprintf(stderr, "buddy_perf: cannot write %s\n",
                         path.c_str());
        else
            std::printf("spans: %zu -> %s\n", spans.size(), path.c_str());
    }
    const bool correct = checks.failed == 0;
    std::printf("checks: %llu attempted, %llu failed (failed_pct %.4f)\n",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed),
                pct(checks.failed, checks.attempted));
    std::printf("%s\n", resultJson(correct, std::max<u64>(checks.attempted, 1),
                                   std::min(checks.failed, checks.attempted),
                                   metrics)
                            .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
