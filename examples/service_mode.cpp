/**
 * @file
 * Service mode: one engine, many tenants, QoS-scheduled.
 *
 * Records a small capture, then runs a mixed fleet on one 4-shard
 * engine behind the ServiceScheduler: two trace-backed tenants
 * streaming the same capture under private VA namespaces plus two
 * synthetic tenants with their own working sets, all closed-loop and
 * scheduled weighted-fair with 1:1:2:4 weights. Afterwards the
 * per-tenant accounting shows the isolation contract in action — the
 * two trace tenants' functional totals match each other and the
 * recorded capture exactly, contention notwithstanding — alongside
 * queueing delay and the fleet's fairness indices.
 *
 *   ./example_service_mode --entries=4096 --sched=weighted-fair
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "engine/engine.h"
#include "engine/trace.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "workloads/patterns.h"

using namespace buddy;

namespace {

EngineConfig
engineConfig(std::size_t entries)
{
    EngineConfig cfg;
    cfg.shards = 4;
    cfg.shard.deviceBytes = 8 * entries * kEntryBytes + 8 * MiB;
    return cfg;
}

/** Record a write+read pass over @p entries mixed entries. */
std::vector<u8>
recordCapture(std::size_t entries)
{
    ShardedEngine eng(engineConfig(entries));
    TraceRecorderSink recorder;
    eng.attachSink(&recorder);

    const auto id = eng.allocate("tensor", entries * kEntryBytes,
                                 CompressionTarget::Ratio2);
    if (!id) {
        std::fprintf(stderr, "allocation failed\n");
        std::exit(1);
    }
    const EngineAllocation &ea = eng.allocations().at(*id);
    recorder.noteAllocation(ea.name, ea.va, ea.bytes, ea.target);

    Rng rng(eng.shardSeed(0));
    std::vector<u8> data(entries * kEntryBytes);
    std::vector<u8> readback(entries * kEntryBytes);
    for (std::size_t e = 0; e < entries; ++e)
        fillBucketEntry(rng, static_cast<unsigned>(e % kPatternBuckets),
                        data.data() + e * kEntryBytes);

    AccessBatch plan;
    for (std::size_t e = 0; e < entries; ++e)
        plan.write(ea.va + e * kEntryBytes, data.data() + e * kEntryBytes);
    eng.execute(plan);
    plan.clear();
    for (std::size_t e = 0; e < entries; ++e)
        plan.read(ea.va + e * kEntryBytes,
                  readback.data() + e * kEntryBytes);
    eng.execute(plan);
    eng.detachSink(&recorder);
    return recorder.serialize();
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags cli("example_service_mode",
                 "trace-backed and synthetic tenants behind the service "
                 "scheduler");
    cli.addUint("entries", 4096, "capture / working-set size in entries");
    cli.addUint("repeat", 2, "passes each trace tenant streams");
    cli.addEnum("sched", "weighted-fair",
                {{"fifo", static_cast<u64>(SchedPolicy::Fifo)},
                 {"round-robin", static_cast<u64>(SchedPolicy::RoundRobin)},
                 {"weighted-fair",
                  static_cast<u64>(SchedPolicy::WeightedFair)}},
                "QoS policy");
    if (!cli.parse(argc, argv))
        return 0;

    const std::size_t entries = cli.uintOf("entries");
    const unsigned repeat = static_cast<unsigned>(
        std::max<u64>(1, cli.uintOf("repeat")));

    // --- Capture once; the fleet will stream it concurrently.
    TraceReplayer trace;
    trace.loadImage(recordCapture(entries));
    std::printf("captured %llu batches, %llu ops\n\n",
                (unsigned long long)trace.batchCount(),
                (unsigned long long)trace.opCount());

    // --- One shared engine, four tenants, weighted QoS.
    ShardedEngine eng(engineConfig(entries));
    ServiceConfig scfg;
    scfg.policy = static_cast<SchedPolicy>(cli.enumOf("sched"));
    ServiceScheduler sched(eng, scfg);
    sched.addSession(
        std::make_unique<TenantSession>("trace-a", trace, eng, repeat), 1);
    sched.addSession(
        std::make_unique<TenantSession>("trace-b", trace, eng, repeat), 1);
    sched.addSession(std::make_unique<TenantSession>(
                         "synth-a", eng, engine::splitmix64(7), entries / 4,
                         u64{2} * repeat),
                     2);
    sched.addSession(std::make_unique<TenantSession>(
                         "synth-b", eng, engine::splitmix64(8), entries / 4,
                         u64{2} * repeat),
                     4);
    const ServiceReport rep = sched.run();

    Table t({"tenant", "weight", "batches", "q-delay-kcyc", "service-kcyc",
             "reads", "writes", "dev-sectors", "buddy%"});
    for (const TenantReport &tr : rep.tenants)
        t.addRow({tr.name, strfmt("%llu", (unsigned long long)tr.weight),
                  strfmt("%llu", (unsigned long long)tr.batches),
                  strfmt("%.1f", tr.queueDelay.sum() / 1e3),
                  strfmt("%.1f", tr.serviceCycles / 1e3),
                  strfmt("%llu", (unsigned long long)tr.totals.reads),
                  strfmt("%llu", (unsigned long long)tr.totals.writes),
                  strfmt("%llu",
                         (unsigned long long)tr.totals.deviceSectors),
                  strfmt("%.1f",
                         100.0 * tr.totals.buddyAccessFraction())});
    t.print();

    std::printf("\nfleet: %llu batches over %llu simulated cycles, Jain "
                "%.4f (weighted %.4f), %.1f ms wall\n",
                (unsigned long long)rep.dispatched,
                (unsigned long long)rep.simCycles, rep.jainIndex,
                rep.weightedJainIndex, rep.wallSeconds * 1e3);

    // --- Isolation on display: the two trace tenants streamed the same
    // capture, so their functional totals match each other and the
    // recorded totals (x repeat) bit-for-bit despite the contention.
    BatchSummary recorded;
    for (unsigned r = 0; r < repeat; ++r)
        recorded.accumulate(trace.recordedTotals().summary);
    const bool ok =
        isolationEqual(rep.tenants[0].totals, rep.tenants[1].totals,
                       true) &&
        isolationEqual(rep.tenants[0].totals, recorded, false);
    std::printf("trace tenants vs. each other and the capture: %s\n",
                ok ? "bit-identical" : "MISMATCH");
    return ok ? 0 : 1;
}
