#include "service/scheduler.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/table.h"
#include "engine/engine.h"
#include "obs/chrome_trace.h"

namespace buddy {
namespace service {

/** One registered session plus its accumulated accounting. */
struct ServiceScheduler::Tenant
{
    std::unique_ptr<TenantSession> session;

    /** The tenant's slice of the report, kept up to date as batches
     *  run; finalizeReport() fills in the rest. */
    TenantReport report;

    /** Metric probes (null until ServiceScheduler::attachMetrics). */
    obs::LatencyHistogram *mServiceCycles = nullptr;
    obs::LatencyHistogram *mQueueDelay = nullptr;
    obs::Counter *mDispatched = nullptr;
    obs::Counter *mBatches = nullptr;
};

/**
 * One batch between admission and its completion event on the
 * simulated clock. The engine has already executed it; this is the
 * record the event loop accounts once the clock reaches `complete`.
 */
struct ServiceScheduler::Dispatch
{
    std::size_t tenant = 0; ///< index into tenants_
    u64 arrival = 0;  ///< batch became eligible
    u64 admit = 0;    ///< clock at admission
    u64 complete = 0; ///< admit + serviceCycles
    u64 serviceCycles = 0;
    u64 admitSeq = 0;  ///< scheduler admission order (event tie-break)
    u64 submitSeq = 0; ///< engine submit sequence (timeline join key)
    BatchSummary summary;
};

ServiceScheduler::ServiceScheduler(engine::ShardedEngine &engine,
                                   ServiceConfig cfg)
    : engine_(engine), cfg_(cfg)
{
    BUDDY_CHECK(cfg_.maxInflightPerTenant >= 1,
                "maxInflightPerTenant must be >= 1");
    BUDDY_CHECK(cfg_.maxInflightTotal >= 1, "maxInflightTotal must be >= 1");
}

ServiceScheduler::~ServiceScheduler() = default;

u32
ServiceScheduler::addSession(std::unique_ptr<TenantSession> session,
                             u64 weight)
{
    BUDDY_CHECK(!ran_, "sessions must be added before run()");
    BUDDY_CHECK(session != nullptr, "null session");
    BUDDY_CHECK(weight >= 1, "tenant weight must be >= 1");
    auto t = std::make_unique<Tenant>();
    t->session = std::move(session);
    t->report.tenant = static_cast<u32>(tenants_.size() + 1);
    t->report.weight = weight;
    tenants_.push_back(std::move(t));
    return tenants_.back()->report.tenant;
}

void
ServiceScheduler::attachMetrics(obs::MetricRegistry &registry)
{
    BUDDY_CHECK(!ran_, "attachMetrics must precede run()");
    metricsActive_ = true;
    mDispatched_ = &registry.counter("sim/service/dispatched");
    mSimCycles_ = &registry.gauge("sim/service/sim_cycles");
    for (auto &t : tenants_) {
        const std::string p = strfmt("sim/service/t%u/", t->report.tenant);
        t->mServiceCycles = &registry.histogram(p + "service_cycles");
        t->mQueueDelay = &registry.histogram(p + "queue_delay_cycles");
        t->mDispatched = &registry.counter(p + "dispatched");
        t->mBatches = &registry.counter(p + "batches");
    }
}

int
ServiceScheduler::pickNext(const std::vector<unsigned> &inflight,
                           std::size_t &rrCursor, u64 now) const
{
    const std::size_t n = tenants_.size();
    const auto eligible = [&](std::size_t i) {
        const Tenant &t = *tenants_[i];
        return !t.session->done() &&
               inflight[i] < cfg_.maxInflightPerTenant &&
               t.session->arrivalCycles(t.report.dispatched) <= now;
    };

    switch (cfg_.policy) {
    case SchedPolicy::Fifo:
        for (std::size_t i = 0; i < n; ++i)
            if (eligible(i))
                return static_cast<int>(i);
        return -1;

    case SchedPolicy::RoundRobin:
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = (rrCursor + k) % n;
            if (eligible(i)) {
                rrCursor = (i + 1) % n;
                return static_cast<int>(i);
            }
        }
        return -1;

    case SchedPolicy::WeightedFair: {
        // Stride scheduling: least dispatched/weight wins, compared by
        // exact integer cross-multiplication; ties go to the lower
        // tenant id (the earlier arrival).
        int best = -1;
        for (std::size_t i = 0; i < n; ++i) {
            if (!eligible(i))
                continue;
            if (best < 0) {
                best = static_cast<int>(i);
                continue;
            }
            const Tenant &a = *tenants_[i];
            const Tenant &b = *tenants_[static_cast<std::size_t>(best)];
            if (a.report.dispatched * b.report.weight <
                b.report.dispatched * a.report.weight)
                best = static_cast<int>(i);
        }
        return best;
    }
    }
    return -1;
}

const BatchSummary &
ServiceScheduler::executeNext(Tenant &t)
{
    const bool ok = t.session->next(plan_, readBuf_);
    BUDDY_CHECK(ok, "eligible session yielded no batch");
    plan_.setTenant(t.report.tenant);
    return engine_.execute(plan_);
}

bool
ServiceScheduler::allDone() const
{
    for (const auto &t : tenants_)
        if (!t->session->done())
            return false;
    return true;
}

ServiceReport
ServiceScheduler::run()
{
    BUDDY_CHECK(!ran_, "ServiceScheduler::run is single-shot");
    ran_ = true;
    // buddy-lint: allow(wall-clock) wall/ throughput instrumentation (ServiceReport::wallSeconds); never feeds sim/ totals
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = tenants_.size();
    ServiceReport rep;

    std::size_t rrCursor = n ? engine::splitmix64(cfg_.seed) % n : 0;
    std::vector<unsigned> inflight(n, 0);
    std::vector<Dispatch> pending;
    u64 now = 0;       ///< the simulated service clock
    u64 admitted = 0;  ///< batches admitted over the whole run
    u64 admitSeq = 0;  ///< admission order (completion tie-break)

    // Truncation: stop *admitting* once maxCompletions batches have
    // been admitted, then drain what is in flight — every admitted
    // batch completes and is accounted, so scheduler totals stay
    // consistent with the engine's per-tenant totals.
    const auto admissionOpen = [&] {
        return cfg_.maxCompletions == 0 || admitted < cfg_.maxCompletions;
    };

    while (n) {
        // Admission pass at the current clock: refill every free slot
        // the policy grants. The policy re-picks after each grant, so
        // slots freed by one completion can fan out across tenants.
        while (admissionOpen() && pending.size() < cfg_.maxInflightTotal) {
            const int pick = pickNext(inflight, rrCursor, now);
            if (pick < 0)
                break;
            const std::size_t i = static_cast<std::size_t>(pick);
            Tenant &t = *tenants_[i];
            Dispatch d;
            d.tenant = i;
            d.arrival = t.session->arrivalCycles(t.report.dispatched);
            d.admit = now;
            d.admitSeq = admitSeq++;
            d.summary = executeNext(t);
            d.submitSeq = plan_.submitSeq();
            // Service latency is known at admission: the completion
            // event lies that many simulated cycles later.
            d.serviceCycles =
                std::max<u64>(d.summary.combinedWindowCycles, 1);
            d.complete = d.admit + d.serviceCycles;
            ++inflight[i];
            t.report.maxInflight =
                std::max<u64>(t.report.maxInflight, inflight[i]);
            ++t.report.dispatched;
            ++admitted;

            // Queueing delay is fixed at admission: eligibility to
            // admission on the simulated clock.
            const u64 delay = now - d.arrival;
            t.report.queueDelay.add(delay);
            if (t.mDispatched != nullptr) {
                t.mDispatched->add();
                t.mQueueDelay->add(delay);
            }
            if (metricsActive_)
                mDispatched_->add();
            pending.push_back(d);
        }
        rep.maxGlobalInflight =
            std::max<u64>(rep.maxGlobalInflight, pending.size());

        if (pending.empty()) {
            if (!admissionOpen() || allDone())
                break;
            // Fleet idle: nothing in flight and nothing eligible, so
            // jump the clock to the earliest future arrival.
            u64 nextArrival = ~0ull;
            for (const auto &t : tenants_)
                if (!t->session->done())
                    nextArrival =
                        std::min(nextArrival,
                                 t->session->arrivalCycles(
                                     t->report.dispatched));
            BUDDY_CHECK(nextArrival != ~0ull && nextArrival > now,
                        "idle fleet must have a future arrival");
            now = nextArrival;
            continue;
        }

        // Pop the earliest completion event; ties break on admission
        // order, so the event sequence is a pure function of the seed
        // and the workload.
        std::size_t best = 0;
        for (std::size_t k = 1; k < pending.size(); ++k) {
            const Dispatch &a = pending[k];
            const Dispatch &b = pending[best];
            if (a.complete < b.complete ||
                (a.complete == b.complete && a.admitSeq < b.admitSeq))
                best = k;
        }
        const Dispatch done = pending[best];
        pending.erase(pending.begin() +
                      static_cast<std::ptrdiff_t>(best));

        now = done.complete;
        Tenant &t = *tenants_[done.tenant];
        --inflight[done.tenant];
        t.report.totals.accumulate(done.summary);
        ++t.report.batches;
        t.report.serviceLatency.add(done.serviceCycles);
        if (t.mBatches != nullptr) {
            t.mBatches->add();
            t.mServiceCycles->add(done.serviceCycles);
        }
        if (timeline_ != nullptr)
            timeline_->noteServiceSpan(done.submitSeq, done.arrival,
                                       done.admit, done.complete);
    }

    rep.dispatched = admitted;
    rep.simCycles = now;
    if (metricsActive_)
        mSimCycles_->set(static_cast<i64>(now));

    finalizeReport(rep);
    rep.wallSeconds = std::chrono::duration<double>(
                          // buddy-lint: allow(wall-clock) wall/ throughput instrumentation; never feeds sim/ totals
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return rep;
}

void
ServiceScheduler::finalizeReport(ServiceReport &rep) const
{
    const std::size_t n = tenants_.size();
    rep.allFinished = allDone();

    rep.tenants.reserve(n);
    double sum = 0.0, sumSq = 0.0, wsum = 0.0, wsumSq = 0.0;
    rep.minServiceCycles = n ? ~0ull : 0;
    for (const auto &t : tenants_) {
        TenantReport tr = t->report;
        tr.name = t->session->name();
        tr.finished = t->session->done();
        tr.serviceCycles = tr.serviceLatency.sum();

        rep.minServiceCycles =
            std::min(rep.minServiceCycles, tr.serviceCycles);
        rep.maxServiceCycles =
            std::max(rep.maxServiceCycles, tr.serviceCycles);
        const double x = static_cast<double>(tr.serviceCycles);
        rep.tenants.push_back(std::move(tr));
        const double wx = x / static_cast<double>(t->report.weight);
        sum += x;
        sumSq += x * x;
        wsum += wx;
        wsumSq += wx * wx;
    }
    // Σx² == 0 means no tenant received any service: the index is
    // undefined there, reported as 0.0 — distinctly outside the
    // defined range [1/n, 1] — rather than a fake "perfectly fair".
    const double dn = static_cast<double>(n);
    rep.jainIndex = sumSq > 0.0 ? (sum * sum) / (dn * sumSq) : 0.0;
    rep.weightedJainIndex =
        wsumSq > 0.0 ? (wsum * wsum) / (dn * wsumSq) : 0.0;
}

} // namespace service
} // namespace buddy
