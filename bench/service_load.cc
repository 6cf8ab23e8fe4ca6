/**
 * @file
 * Service load: many tenants multiplexed onto one sharded engine.
 *
 * Spins up N synthetic TenantSessions (each with a private working set
 * and deterministic per-tenant seed) on one ShardedEngine behind the
 * ServiceScheduler, runs them to completion under the selected QoS
 * policy and admission caps, and reports per-tenant accounting plus
 * fleet throughput and fairness (min/max service cycles and Jain's
 * index).
 *
 * This is a true open-loop load generator: admission on a simulated
 * clock with a deterministic per-tenant arrival process
 * (--arrivals=poisson|bursty|closed), reporting per-tenant
 * queueing-delay and service-latency p50/p95/p99 in simulated cycles —
 * all bit-for-bit reproducible from --seed.
 *
 * Correctness ride-along — the service isolation contract: after the
 * contended run, every tenant's stream is replayed alone on a private
 * identically-configured engine and the accumulated functional totals
 * (traffic counters, serial link cycles, and the windowed totals
 * under the default merged window mode) must match the contended run
 * bit-for-bit. The scheduler's accounting is also cross-checked
 * against the engine's own per-tenant totals. Either mismatch fails
 * the run. Under --window-mode=per-shard the window fields leave the
 * contract (the sub-stream split depends on co-tenant placement) and
 * the cross-shard window-imbalance spread is reported instead.
 *
 *   bench_service_load --tenants=16 --sched=weighted-fair
 *   bench_service_load --smoke        # 8 tenants + "SMOKE OK" for CI
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "engine/engine.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "service/scheduler.h"
#include "service/session.h"

using namespace buddy;

namespace {

EngineConfig
engineConfig(unsigned shards, const std::string &codec,
             std::size_t tenants, std::size_t entries, u64 window,
             WindowMode mode)
{
    EngineConfig cfg;
    cfg.shards = shards;
    cfg.shard.codec = codec;
    // Worst case the ordinal hash lands every tenant's set on one shard.
    cfg.shard.deviceBytes = tenants * entries * kEntryBytes + 8 * MiB;
    cfg.shard.linkWindow = window;
    cfg.shard.windowMode = mode;
    return cfg;
}

/** Deterministic per-tenant workload seed. */
u64
tenantSeed(u64 base, std::size_t i)
{
    return engine::splitmix64(base + i);
}

/**
 * Replay the first @p upto batches of tenant @p i's stream alone on a
 * private engine (under --max-completions a tenant may have completed
 * only a prefix; the contract compares exactly the batches that ran).
 */
BatchSummary
soloTotals(const EngineConfig &cfg, u64 seed, std::size_t i,
           std::size_t entries, u64 batches, u64 upto)
{
    ShardedEngine eng(cfg);
    TenantSession solo("t" + std::to_string(i), eng, tenantSeed(seed, i),
                       entries, batches);
    AccessBatch plan;
    std::vector<u8> readbuf;
    BatchSummary totals;
    for (u64 b = 0; b < upto && solo.next(plan, readbuf); ++b)
        totals.accumulate(eng.execute(plan));
    return totals;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags cli("bench_service_load",
                 "multi-tenant service front end: QoS, fairness, "
                 "isolation");
    cli.addUint("tenants", 16, "concurrent tenant sessions");
    cli.addUint("shards", 4, "engine shard count");
    cli.addUint("entries", 1024, "per-tenant working set in 128 B entries");
    cli.addUint("batches", 8, "batches per tenant stream");
    cli.addString("codec", "bpc", "codec registry name");
    cli.addUint("inflight", 2, "admission cap: in-flight batches per tenant");
    cli.addUint("total-inflight", 16,
                "admission cap: in-flight batches fleet-wide");
    cli.addEnum("sched", "round-robin",
                {{"fifo", static_cast<u64>(SchedPolicy::Fifo)},
                 {"round-robin", static_cast<u64>(SchedPolicy::RoundRobin)},
                 {"weighted-fair",
                  static_cast<u64>(SchedPolicy::WeightedFair)}},
                "QoS policy of the service scheduler");
    cli.addUint("weight-spread", 1,
                "tenant i gets weight 1 + i %% spread (1 = uniform)");
    cli.addUint("seed", 0x5eed, "scheduling + workload base seed");
    cli.addEnum("arrivals", "poisson",
                {{"closed", static_cast<u64>(ArrivalKind::Closed)},
                 {"poisson", static_cast<u64>(ArrivalKind::Poisson)},
                 {"bursty", static_cast<u64>(ArrivalKind::Bursty)}},
                "per-tenant arrival process");
    cli.addUint("mean-gap", 4096,
                "poisson mean inter-arrival gap in simulated cycles");
    cli.addUint("burst-size", 4, "bursty: batches arriving together");
    cli.addUint("burst-gap", 8192,
                "bursty: cycles between burst fronts");
    cli.addUint("max-completions", 0,
                "stop admitting after this many batches (0 = drain)");
    addWindowFlag(cli); // --window, default 32
    cli.addEnum("window-mode", "merged",
                {{"merged", static_cast<u64>(WindowMode::Merged)},
                 {"per-shard", static_cast<u64>(WindowMode::PerShard)}},
                "windowed-timing mode of the shared engine");
    cli.addBool("smoke", "8-tenant run + pass/fail line for CI");
    addJsonFlag(cli);     // --json, machine-readable report
    addTraceOutFlag(cli); // --trace-out, Chrome trace timeline
    if (!cli.parse(argc, argv))
        return 0;

    const bool smoke = cli.boolOf("smoke");
    const std::size_t tenants = static_cast<std::size_t>(
        !cli.wasSet("tenants") && smoke ? 8 : cli.uintOf("tenants"));
    const std::size_t entries = static_cast<std::size_t>(
        !cli.wasSet("entries") && smoke ? 512 : cli.uintOf("entries"));
    const unsigned shards = static_cast<unsigned>(cli.uintOf("shards"));
    const u64 batches = std::max<u64>(1, cli.uintOf("batches"));
    const u64 spread = std::max<u64>(1, cli.uintOf("weight-spread"));
    const u64 seed = cli.uintOf("seed");
    const u64 window = windowOf(cli);
    const auto mode = static_cast<WindowMode>(cli.enumOf("window-mode"));
    const auto policy = static_cast<SchedPolicy>(cli.enumOf("sched"));
    const auto arrivalKind = static_cast<ArrivalKind>(cli.enumOf("arrivals"));
    const std::string &codec = cli.stringOf("codec");
    if (tenants == 0 || entries == 0 || shards == 0) {
        std::fprintf(stderr,
                     "--tenants, --entries and --shards must be nonzero\n");
        return 1;
    }

    std::printf("=== service load: %zu tenants x %llu batches on a "
                "%u-shard engine, sched %s, arrivals %s ===\n\n",
                tenants, (unsigned long long)batches, shards,
                cli.enumTokenOf("sched").c_str(),
                cli.enumTokenOf("arrivals").c_str());

    const EngineConfig cfg =
        engineConfig(shards, codec, tenants, entries, window, mode);
    ShardedEngine eng(cfg);

    // Telemetry: one registry over the engine and the scheduler, and —
    // when --trace-out is given — a Chrome-trace timeline fed by the
    // engine's batch-completion hook.
    obs::MetricRegistry registry;
    eng.attachMetrics(registry);
    obs::ChromeTraceSink trace;
    if (!traceOutPathOf(cli).empty())
        eng.setBatchObserver(&trace);

    ServiceConfig scfg;
    scfg.seed = seed;
    scfg.maxInflightPerTenant =
        static_cast<unsigned>(std::max<u64>(1, cli.uintOf("inflight")));
    scfg.maxInflightTotal = static_cast<unsigned>(
        std::max<u64>(1, cli.uintOf("total-inflight")));
    scfg.policy = policy;
    scfg.maxCompletions = cli.uintOf("max-completions");
    ServiceScheduler sched(eng, scfg);

    for (std::size_t i = 0; i < tenants; ++i) {
        auto session = std::make_unique<TenantSession>(
            "t" + std::to_string(i), eng, tenantSeed(seed, i), entries,
            batches);
        // Per-tenant deterministic arrival stream: the Poisson draw
        // seed derives from the base seed and the tenant ordinal, so
        // the whole fleet's arrivals reproduce from --seed.
        switch (arrivalKind) {
        case ArrivalKind::Poisson:
            session->setArrivals(ArrivalSpec::poisson(
                tenantSeed(seed ^ 0xa221a221ull, i),
                std::max<u64>(1, cli.uintOf("mean-gap"))));
            break;
        case ArrivalKind::Bursty:
            session->setArrivals(ArrivalSpec::bursty(
                std::max<u64>(1, cli.uintOf("burst-size")),
                cli.uintOf("burst-gap")));
            break;
        default:
            break; // closed-loop: every batch ready at cycle 0
        }
        sched.addSession(std::move(session), 1 + i % spread);
    }
    sched.attachMetrics(registry); // after the full roster, before run()
    if (!traceOutPathOf(cli).empty())
        sched.setTimeline(&trace); // open-loop spans on the service clock

    const ServiceReport rep = sched.run();

    // Isolation contract: contended per-tenant totals vs. solo replay,
    // and scheduler accounting vs. the engine's own per-tenant totals.
    const bool windowed = mode == WindowMode::Merged;
    const auto engineTotals = eng.tenantTotals();
    bool iso_ok = true, account_ok = true;
    Table t({"tenant", "weight", "batches", "q-delay-kcyc",
             "max-infl", "service-kcyc", "reads", "writes", "buddy%",
             "solo"});
    for (std::size_t i = 0; i < rep.tenants.size(); ++i) {
        const TenantReport &tr = rep.tenants[i];
        const BatchSummary solo =
            soloTotals(cfg, seed, i, entries, batches, tr.batches);
        const bool ok = isolationEqual(tr.totals, solo, windowed);
        iso_ok = iso_ok && ok;
        const auto it = engineTotals.find(tr.tenant);
        if (it == engineTotals.end() ||
            !isolationEqual(it->second.summary, tr.totals, true) ||
            it->second.batches != tr.batches)
            account_ok = false;
        t.addRow({tr.name, strfmt("%llu", (unsigned long long)tr.weight),
                  strfmt("%llu", (unsigned long long)tr.batches),
                  strfmt("%.1f",
                         static_cast<double>(tr.queueDelay.sum()) / 1e3),
                  strfmt("%llu", (unsigned long long)tr.maxInflight),
                  strfmt("%.1f",
                         static_cast<double>(tr.serviceCycles) / 1e3),
                  strfmt("%llu", (unsigned long long)tr.totals.reads),
                  strfmt("%llu", (unsigned long long)tr.totals.writes),
                  strfmt("%.1f", 100.0 * tr.totals.buddyAccessFraction()),
                  ok ? "ok" : "MISMATCH"});
    }
    t.print();

    std::printf("\nfleet: %llu batches dispatched over %llu simulated "
                "cycles, peak %llu in flight, %.1f ms wall\n",
                (unsigned long long)rep.dispatched,
                (unsigned long long)rep.simCycles,
                (unsigned long long)rep.maxGlobalInflight,
                rep.wallSeconds * 1e3);
    std::printf("fairness: service cycles min %llu / max %llu, Jain %.4f"
                " (weighted %.4f)\n",
                (unsigned long long)rep.minServiceCycles,
                (unsigned long long)rep.maxServiceCycles, rep.jainIndex,
                rep.weightedJainIndex);
    std::printf("isolation (per-tenant totals vs. solo replay%s): %s\n",
                windowed ? ", incl. window totals" : "",
                iso_ok ? "bit-identical" : "MISMATCH");
    std::printf("engine per-tenant accounting vs. scheduler: %s\n",
                account_ok ? "bit-identical" : "MISMATCH");

    if (mode == WindowMode::PerShard) {
        const WindowImbalanceStats im = eng.windowImbalance();
        std::printf("\ncross-shard window imbalance: mean shard makespan "
                    "%.1f kcyc, mean barrier %.1f kcyc, imbalance %.3f\n",
                    im.meanShard() / 1e3, im.meanMax() / 1e3,
                    im.imbalance());
        std::string hist;
        for (std::size_t b = 0; b < WindowImbalanceStats::kRatioBuckets;
             ++b)
            hist += strfmt("%s%llu", b ? "," : "",
                           (unsigned long long)im.ratioHist[b]);
        std::printf("max/mean ratio hist 1.0..2.0+ (0.1 steps): %s\n",
                    hist.c_str());
    }

    // Per-tenant service-cycle percentiles from the registry's
    // per-batch histograms (the QoS latency view of the fairness
    // currency; deterministic under the default merged window mode).
    Table pct({"tenant", "batches", "p50-cyc", "p95-cyc", "p99-cyc",
               "mean-cyc"});
    for (const TenantReport &tr : rep.tenants) {
        const auto &h = registry.histogram(
            strfmt("sim/service/t%u/service_cycles", tr.tenant));
        pct.addRow({tr.name, strfmt("%llu", (unsigned long long)h.count()),
                    strfmt("%llu", (unsigned long long)h.percentile(500)),
                    strfmt("%llu", (unsigned long long)h.percentile(950)),
                    strfmt("%llu", (unsigned long long)h.percentile(990)),
                    strfmt("%llu", (unsigned long long)h.mean())});
    }
    std::printf("\nper-tenant service-cycle percentiles (per-batch "
                "max(combined-window-cycles, 1)):\n\n");
    pct.print();

    // Open-loop latency: per-batch queueing delay (arrival ->
    // admission) and service latency (admission -> completion), both
    // on the simulated-cycle clock from the report's histograms.
    Table lat({"tenant", "q-p50", "q-p95", "q-p99", "s-p50", "s-p95",
               "s-p99"});
    for (const TenantReport &tr : rep.tenants) {
        const obs::LatencyHistogram &q = tr.queueDelay;
        const obs::LatencyHistogram &s = tr.serviceLatency;
        lat.addRow({tr.name,
                    strfmt("%llu", (unsigned long long)q.percentile(500)),
                    strfmt("%llu", (unsigned long long)q.percentile(950)),
                    strfmt("%llu", (unsigned long long)q.percentile(990)),
                    strfmt("%llu", (unsigned long long)s.percentile(500)),
                    strfmt("%llu", (unsigned long long)s.percentile(950)),
                    strfmt("%llu", (unsigned long long)s.percentile(990))});
    }
    std::printf("\nopen-loop latency percentiles in simulated cycles "
                "(q = queueing delay, s = service latency):\n\n");
    lat.print();

    const bool ok = iso_ok && account_ok;

    if (!jsonPathOf(cli).empty()) {
        obs::BenchReport report("service_load");
        report.setValue("tenants", static_cast<u64>(tenants));
        report.setValue("shards", shards);
        report.setValue("sched", cli.enumTokenOf("sched"));
        report.setValue("window_mode", cli.enumTokenOf("window-mode"));
        report.setValue("arrivals", cli.enumTokenOf("arrivals"));
        report.setValue("sim_cycles", rep.simCycles);
        report.setValue("dispatched", rep.dispatched);
        report.setValue("max_global_inflight", rep.maxGlobalInflight);
        report.setValue("min_service_cycles", rep.minServiceCycles);
        report.setValue("max_service_cycles", rep.maxServiceCycles);
        report.setValue("jain_index", rep.jainIndex);
        report.setValue("weighted_jain_index", rep.weightedJainIndex);
        report.setValue("wall_seconds", rep.wallSeconds);
        report.setValue("isolation_ok", static_cast<u64>(iso_ok ? 1 : 0));
        report.setValue("accounting_ok",
                        static_cast<u64>(account_ok ? 1 : 0));
        report.addTable("tenants", t);
        report.addTable("service_cycle_percentiles", pct);
        report.addTable("open_loop_latency", lat);
        report.attachRegistry(&registry);
        report.writeTo(jsonPathOf(cli));
        std::printf("\nwrote %s\n", jsonPathOf(cli).c_str());
    }
    if (!traceOutPathOf(cli).empty()) {
        trace.save(traceOutPathOf(cli));
        std::printf("trace: %zu batches -> %s (load in ui.perfetto.dev)\n",
                    trace.batches(), traceOutPathOf(cli).c_str());
    }

    if (smoke)
        std::printf("%s\n", ok ? "SMOKE OK" : "SMOKE FAILED");
    return ok ? 0 : 1;
}
