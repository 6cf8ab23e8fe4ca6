/**
 * @file
 * ServiceScheduler: the multi-tenant service front end of the sharded
 * engine — admission control, QoS scheduling, and per-tenant
 * observability over many concurrent TenantSessions.
 *
 * The scheduler runs the engine as a long-lived multiplexer: sessions
 * are added up front (each bringing its own VA namespace), then run()
 * drives them to completion under open-loop admission on a
 * simulated-cycle clock. Slots refill at batch completion events, and
 * the QoS policy re-picks among eligible tenants at every completion
 * event. A batch is eligible once the clock passes its arrival time
 * (TenantSession arrival process; sessions without one are
 * closed-loop) and its tenant is below its in-flight cap
 * (ServiceConfig::maxInflightPerTenant, with
 * ServiceConfig::maxInflightTotal overall). Each batch is accounted
 * per-batch in simulated cycles: queueing delay (arrival -> admission)
 * and service latency (admission -> completion, = max(combined
 * windowed makespan, 1)); a batch's completion event is its admission
 * time plus its service latency, and the clock advances from
 * completion to completion (or jumps to the next arrival when the
 * fleet idles).
 *
 * Sessions generate plans lazily (TenantSession::next), so a tenant
 * denied admission is backpressured into its stream rather than
 * queueing unbounded work.
 *
 * Execution: every admitted batch runs to completion inside
 * ShardedEngine::execute() on the calling thread, at admission. "In
 * flight" is simulated state: a batch occupies its slot from admission
 * until its completion event on the simulated clock, and the scheduler
 * keeps only its summary until then.
 *
 * Determinism: policy decisions depend only on integer scheduler state
 * (dispatch counts, weights, the seeded round-robin rotation, the
 * simulated clock and deterministic arrival times), engine results are
 * deterministic per batch, and completion events pop in (completion
 * time, admission sequence) order, so a fixed ServiceConfig::seed
 * makes the whole run — dispatch order, latency histograms, per-tenant
 * totals, fairness — reproducible run-to-run. And because each batch
 * carries ops of exactly one tenant and per-batch results are pure
 * functions of the plan (under WindowMode::Merged), a tenant's
 * accumulated totals are bit-identical to replaying its stream alone
 * on a private engine, no matter how many other tenants contend — the
 * isolation contract, extended from the engine's single-workload
 * bit-identical guarantee and pinned by tests/test_service.cc.
 * (Metadata hit/miss counts are shared-cache state, and under
 * WindowMode::PerShard the window fields depend on co-tenant
 * allocation placement; both are observable interference metrics,
 * deliberately outside the contract.)
 *
 * QoS policies (SchedPolicy):
 *   Fifo          drain sessions in arrival (addSession) order — the
 *                 unfair baseline the fairness metrics expose.
 *   RoundRobin    rotate over eligible sessions from a seeded offset.
 *   WeightedFair  stride scheduling: admit the eligible tenant with
 *                 the least dispatched/weight (exact integer
 *                 cross-multiplication compare, ties to the lower
 *                 tenant id), converging each tenant's dispatch share
 *                 to its weight under contention.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/access.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "service/session.h"

namespace buddy {

namespace engine {
class ShardedEngine;
}

namespace obs {
class ChromeTraceSink;
}

namespace service {

/** Admission / QoS policy of the service scheduler. */
enum class SchedPolicy : u8 {
    Fifo,
    RoundRobin,
    WeightedFair,
};

/** perfbench pins this; it goes with the next benchmark change. */
enum class AdmissionMode : u8 { Continuous };

/** Service front-end configuration. */
struct ServiceConfig
{
    /** Scheduling seed: offsets the round-robin rotation. A fixed seed
     *  makes the whole run reproducible bit-for-bit. */
    u64 seed = 0x5eed5eed5eed5eedull;

    /** Admission cap: batches one tenant may have in flight. */
    unsigned maxInflightPerTenant = 2;

    /** Admission cap: batches in flight across all tenants. */
    unsigned maxInflightTotal = 16;

    SchedPolicy policy = SchedPolicy::RoundRobin;

    /** perfbench pins this; it goes with the next benchmark change. */
    AdmissionMode admission = AdmissionMode::Continuous;

    /**
     * Stop *admitting* after this many batches (0 = run to
     * completion), then drain what is still in flight so scheduler
     * accounting and engine tenant totals stay consistent. Truncated
     * runs are how policy convergence is measured: under contention
     * the dispatch shares, not the eventual totals, carry the QoS
     * signal.
     */
    u64 maxCompletions = 0;
};

/** Per-tenant slice of a service run's report. */
struct TenantReport
{
    u32 tenant = 0; ///< id assigned by addSession (1-based)
    std::string name;
    u64 weight = 1;
    bool finished = false; ///< stream fully dispatched and completed

    u64 batches = 0;    ///< batches completed
    u64 dispatched = 0; ///< batches admitted (== batches, unless truncated)

    u64 maxInflight = 0; ///< peak batches in flight at any instant

    /** serviceLatency.sum(): the simulated time this tenant occupied
     *  the fleet — the fairness currency. Codec time is not in it: a
     *  slow CodecTiming grows only totals.codecChargedWindowCycles, so
     *  the service clock and the latency histograms ignore the inline
     *  unit. */
    u64 serviceCycles = 0;

    /** Per-batch queueing delay (arrival → admission) in simulated
     *  cycles; percentile() gives p50/p95/p99, sum() the total time
     *  batches sat eligible but unadmitted. */
    obs::LatencyHistogram queueDelay;

    /** Per-batch service latency (admission → completion =
     *  max(combinedWindowCycles, 1)) in simulated cycles. */
    obs::LatencyHistogram serviceLatency;

    /** Field sums over exactly this tenant's batches (the isolation-
     *  contract totals; matches the engine's tenantTotals() entry). */
    BatchSummary totals;
};

/** Fleet-level report of one service run. */
struct ServiceReport
{
    std::vector<TenantReport> tenants; ///< in addSession order
    u64 dispatched = 0;        ///< batches admitted across all tenants
    u64 maxGlobalInflight = 0; ///< peak in-flight batches at any instant
    bool allFinished = false;
    double wallSeconds = 0.0;

    /** Final simulated-clock value — the cycle the last batch
     *  completed (the open-loop makespan). */
    u64 simCycles = 0;

    /** Fairness over per-tenant serviceCycles. */
    u64 minServiceCycles = 0;
    u64 maxServiceCycles = 0;

    /**
     * Jain's fairness index over per-tenant service cycles:
     * (Σx)² / (n·Σx²) — 1.0 when every tenant received equal service,
     * 1/n when one tenant received everything. An all-idle fleet
     * (every serviceCycles zero) is *undefined*, not perfectly fair:
     * reported as 0.0, distinctly outside the index's [1/n, 1] range
     * (null in the JSON report).
     */
    double jainIndex = 0.0;

    /** Jain's index over serviceCycles/weight (weighted-fair target:
     *  equal weighted shares → 1.0). */
    double weightedJainIndex = 0.0;
};

/**
 * Compare two accumulated summaries on the isolation-contract subset:
 * the SummaryFieldKind::Plan fields, pure per-batch functions of the
 * plan, plus — when @p windowed — the Window fields, which join the
 * contract only under WindowMode::Merged (pass false under PerShard,
 * where the sub-stream split depends on co-tenant placement). The
 * Cache fields are deliberately never compared: they are shared
 * per-shard cache state, the one observable form of cross-tenant
 * interference the service mode permits.
 */
inline bool
isolationEqual(const BatchSummary &a, const BatchSummary &b,
               bool windowed = true)
{
    for (const SummaryField &f : kSummaryFields) {
        const bool compared =
            f.kind == SummaryFieldKind::Plan ||
            (windowed && f.kind == SummaryFieldKind::Window);
        if (compared && a.*f.member != b.*f.member)
            return false;
    }
    return true;
}

/**
 * The multi-tenant service front end (see file header).
 *
 * Usage: construct over an engine, addSession() every tenant, run()
 * once. Sessions must all be added before run() — the engine requires
 * allocation to happen with no batch in flight, and sessions allocate
 * at construction.
 */
class ServiceScheduler
{
  public:
    ServiceScheduler(engine::ShardedEngine &engine, ServiceConfig cfg);
    ~ServiceScheduler();

    ServiceScheduler(const ServiceScheduler &) = delete;
    ServiceScheduler &operator=(const ServiceScheduler &) = delete;

    /**
     * Register @p session as a tenant; @p weight is its WeightedFair
     * share (>= 1). @return the assigned tenant id (1-based; the
     * engine's tenant-0 bucket stays the anonymous default, so tagged
     * and untagged traffic never mix).
     */
    u32 addSession(std::unique_ptr<TenantSession> session, u64 weight = 1);

    /**
     * Register the scheduler's metrics in @p registry and update them
     * during run(). Call after every addSession() and before run().
     *
     *   sim/service/dispatched — fleet admission counter;
     *   sim/service/t<id>/service_cycles — per-tenant histogram of
     *     per-batch max(combinedWindowCycles, 1), the fairness
     *     currency (p50/p95/p99 come from here);
     *   sim/service/t<id>/dispatched, batches — per-tenant admission
     *     counters;
     *   sim/service/t<id>/queue_delay_cycles — per-batch queueing
     *     delay (arrival → admission) histogram;
     *   sim/service/sim_cycles — the final simulated clock (open-loop
     *     makespan).
     *
     * Everything is integer scheduler state or simulated cycles, so
     * under WindowMode::Merged the whole subtree is bit-identical
     * across shard counts and run-to-run. The registry must outlive
     * the scheduler.
     */
    void attachMetrics(obs::MetricRegistry &registry);

    /**
     * Mirror per-batch spans into @p sink: each admitted batch's
     * queued (arrival → admission) and service (admission →
     * completion) intervals on the service clock, keyed by the engine
     * submit sequence so the spans line up with the BatchRecords the
     * engine feeds the same sink. Call before run(); the sink must
     * outlive it.
     */
    void setTimeline(obs::ChromeTraceSink *sink) { timeline_ = sink; }

    /** Drive every session to completion (or maxCompletions) and
     *  return the fleet report. Callable once. */
    ServiceReport run();

    const ServiceConfig &config() const { return cfg_; }

  private:
    struct Tenant;
    struct Dispatch;

    /**
     * Policy pick among eligible tenants; -1 when none. A tenant is
     * eligible when its stream has work, it is below its in-flight
     * cap, and its next batch's arrival time is <= @p now on the
     * simulated clock.
     */
    int pickNext(const std::vector<unsigned> &inflight,
                 std::size_t &rrCursor, u64 now) const;

    /** Pull @p t's next batch into plan_, tag it and execute it on the
     *  engine; @return the batch's summary. */
    const BatchSummary &executeNext(Tenant &t);

    bool allDone() const;
    void finalizeReport(ServiceReport &rep) const;

    engine::ShardedEngine &engine_;
    ServiceConfig cfg_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    bool ran_ = false;

    /** The one plan and read buffer every admission reuses: the engine
     *  is done with both once execute() returns. */
    AccessBatch plan_;
    std::vector<u8> readBuf_;

    obs::ChromeTraceSink *timeline_ = nullptr;

    /** Fleet metric probes (null until attachMetrics). */
    bool metricsActive_ = false;
    obs::Counter *mDispatched_ = nullptr;
    obs::Gauge *mSimCycles_ = nullptr;
};

} // namespace service

using service::AdmissionMode;
using service::isolationEqual;
using service::SchedPolicy;
using service::ServiceConfig;
using service::ServiceReport;
using service::ServiceScheduler;
using service::TenantReport;

} // namespace buddy
