/**
 * @file
 * TenantSession: one simulated client of the service front end.
 *
 * A session wraps one batch stream — a recorded capture streamed
 * through a TraceCursor, or a synthetic write/read workload — with its
 * own VA namespace on the shared engine (its allocations are created at
 * construction, so many sessions coexist without address overlap) and a
 * repeat count. The ServiceScheduler (scheduler.h) pulls plans from
 * sessions batch-at-a-time via next(): sessions generate work lazily,
 * so admission control backpressures into the stream instead of
 * queueing unbounded plans.
 *
 * Open-loop arrival processes: a session may carry an ArrivalSpec
 * giving every batch of its stream a deterministic *arrival time* in
 * simulated cycles — a fixed-seed Poisson process, a fixed-cadence
 * burst train, or explicit per-batch stamps (e.g. carried alongside a
 * recorded capture). The scheduler admits a batch only once its
 * simulated clock passes the batch's arrival time, and the gap between
 * arrival and admission is accounted as queueing delay. Sessions
 * without a spec are closed-loop (every batch ready at cycle 0).
 *
 * Sessions are driven by the scheduler on its calling thread and need
 * no locking of their own. A session does not know its tenant id —
 * the scheduler assigns ids at addSession() and tags each plan.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/access.h"
#include "common/rng.h"
#include "common/types.h"
#include "engine/trace.h"

namespace buddy {

namespace engine {
class ShardedEngine;
}

namespace service {

/** Arrival-process kinds of an open-loop tenant stream. */
enum class ArrivalKind : u8 {
    Closed,   ///< every batch ready at cycle 0 (the pre-arrival model)
    Poisson,  ///< fixed-seed exponential inter-arrival gaps
    Bursty,   ///< bursts of batches on a fixed cycle cadence
    Explicit, ///< caller-supplied per-batch arrival stamps
};

/**
 * Deterministic arrival process of one tenant stream: batch k of the
 * stream arrives (becomes eligible for admission) at a simulated-cycle
 * time that is a pure function of this spec, so open-loop runs
 * reproduce bit-for-bit from their seeds. Build via the factories;
 * arrival times are non-decreasing in k for every kind.
 */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Closed;
    u64 seed = 0;            ///< Poisson draw seed
    u64 meanGapCycles = 0;   ///< Poisson mean inter-arrival gap
    u64 burstSize = 1;       ///< Bursty: batches arriving together
    u64 burstGapCycles = 0;  ///< Bursty: cadence between burst fronts
    std::vector<u64> stamps; ///< Explicit: arrival cycle of batch k

    /** Closed-loop: every batch ready at cycle 0 (the default). */
    static ArrivalSpec
    closed()
    {
        return {};
    }

    /** Poisson process: exponential gaps with the given mean, drawn
     *  from a fixed seed (same seed, same arrival times). */
    static ArrivalSpec
    poisson(u64 seed, u64 meanGapCycles)
    {
        ArrivalSpec s;
        s.kind = ArrivalKind::Poisson;
        s.seed = seed;
        s.meanGapCycles = meanGapCycles;
        return s;
    }

    /** Burst train: batches arrive @p burstSize at a time, burst k's
     *  front at k * @p burstGapCycles. */
    static ArrivalSpec
    bursty(u64 burstSize, u64 burstGapCycles)
    {
        ArrivalSpec s;
        s.kind = ArrivalKind::Bursty;
        s.burstSize = burstSize;
        s.burstGapCycles = burstGapCycles;
        return s;
    }

    /** Explicit per-batch stamps (must be non-decreasing and cover the
     *  whole stream) — e.g. arrival times carried with a capture. */
    static ArrivalSpec
    stamped(std::vector<u64> stamps)
    {
        ArrivalSpec s;
        s.kind = ArrivalKind::Explicit;
        s.stamps = std::move(stamps);
        return s;
    }
};

/** One simulated client's batch stream (see file header). */
class TenantSession
{
  public:
    /**
     * Trace-backed session: stream @p trace's recorded batches
     * @p repeat times. Creates the capture's allocations on @p engine
     * under this session's name prefix ("<name>/"); @p trace must
     * outlive the session.
     */
    TenantSession(std::string name, const engine::TraceReplayer &trace,
                  engine::ShardedEngine &engine, unsigned repeat = 1);

    /**
     * Synthetic session: @p batchCount batches over a private
     * @p entries-entry allocation, alternating full-set writes (mixed
     * compressibility buckets drawn from @p seed) and full-set reads.
     * Deterministic: the same seed always yields the same stream.
     */
    TenantSession(std::string name, engine::ShardedEngine &engine,
                  u64 seed, std::size_t entries, u64 batchCount);

    TenantSession(const TenantSession &) = delete;
    TenantSession &operator=(const TenantSession &) = delete;

    const std::string &name() const { return name_; }

    /** Batches the whole stream yields. */
    u64
    totalBatches() const
    {
        return cursor_ ? cursor_->totalBatches() : batchCount_;
    }

    /** Batches handed to the scheduler so far. */
    u64
    builtBatches() const
    {
        return cursor_ ? cursor_->builtBatches() : built_;
    }

    /** True once the stream is exhausted. */
    bool done() const { return builtBatches() >= totalBatches(); }

    /**
     * Attach an arrival process: materializes one deterministic arrival
     * time per batch of the stream (non-decreasing). Call before the
     * session is scheduled; Explicit specs must supply at least
     * totalBatches() non-decreasing stamps (checked fail-fast).
     */
    void setArrivals(const ArrivalSpec &spec);

    /**
     * Arrival time of batch @p k in simulated cycles: 0 for every batch
     * of a closed-loop session (no spec attached), else the
     * materialized stamp. @p k must be within the stream.
     */
    u64
    arrivalCycles(u64 k) const
    {
        if (arrivals_.empty())
            return 0;
        return arrivals_.at(static_cast<std::size_t>(k));
    }

    /**
     * Fill @p plan with the stream's next batch. Read destinations
     * point into @p readBuf (resized as needed), which must stay alive
     * and untouched until the plan has executed. @return false once
     * exhausted.
     */
    bool next(AccessBatch &plan, std::vector<u8> &readBuf);

  private:
    std::string name_;

    /** Trace mode; null for synthetic sessions. */
    std::unique_ptr<engine::TraceCursor> cursor_;

    /** Synthetic mode state. */
    std::vector<u8> data_;    ///< the generated working set
    std::vector<Addr> vas_;   ///< per-entry VAs of the private allocation
    u64 batchCount_ = 0;
    u64 built_ = 0;

    /** Materialized per-batch arrival cycles; empty = closed-loop. */
    std::vector<u64> arrivals_;
};

} // namespace service

using service::ArrivalKind;
using service::ArrivalSpec;
using service::TenantSession;

} // namespace buddy
