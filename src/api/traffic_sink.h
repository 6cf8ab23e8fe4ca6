/**
 * @file
 * The TrafficSink observer API: one event stream for every traffic
 * consumer.
 *
 * The controller and the sharded engine emit an AccessEvent per
 * executed operation and a BatchSummary per batch. Both build every
 * event with makeEvent() from the finished batch — the op and its
 * AccessInfo after the batch's one timing pass — so an event is
 * defined in one place. An event carries the op's traffic; the
 * batch's simulated time arrives in onBatch()'s summary. Every
 * external traffic consumer — custom BuddyStats-style counting sinks,
 * the profiling pass (OnlineProfileSink in core/profiler.h), the
 * gpusim memory system (MemsysReplaySink in gpusim/memsys.h), and the
 * UM model's migration reporting — shares this one stream instead of
 * re-deriving counters from controller internals. (The controller's
 * own BuddyStats counters are updated inline on the same execution
 * path that emits the events, and carry identical totals — asserted
 * by tests/test_api_batch.cc.)
 * Sinks attach to a controller's TrafficHub; emission is zero-cost
 * when no sink is attached.
 */

#pragma once

#include <algorithm>
#include <vector>

#include "api/access.h"
#include "common/types.h"

namespace buddy {
namespace api {

/** One executed entry access, as observed on the event stream. */
struct AccessEvent
{
    AccessKind kind = AccessKind::Probe;

    /** Entry-aligned virtual address. */
    Addr va = 0;

    /** Owning allocation id (core AllocId). */
    u32 allocId = 0;

    /**
     * Tenant the submitting batch was tagged with (AccessBatch::
     * setTenant), as the sharded engine passes it to makeEvent(). 0 —
     * the anonymous tenant — for untagged batches and for events
     * emitted by a standalone controller.
     */
    u32 tenant = 0;

    /**
     * Traffic and metadata outcome of the access, including the stored
     * payload size (info.storedBits) and the all-zero flag
     * (info.isZero).
     */
    AccessInfo info;

    /**
     * Write payload (kEntryBytes bytes) for Write events, null otherwise.
     * Valid only for the duration of the onAccess() callback; sinks that
     * keep it (e.g. the trace recorder) must copy the bytes.
     */
    const u8 *data = nullptr;
};

/**
 * The one event builder: the event of executed op @p op with result
 * @p info, owned by allocation @p allocId and submitted by @p tenant.
 */
inline AccessEvent
makeEvent(const AccessRequest &op, const AccessInfo &info, u32 allocId,
          u32 tenant)
{
    AccessEvent event;
    event.kind = op.kind;
    event.va = op.va;
    event.allocId = allocId;
    event.tenant = tenant;
    event.info = info;
    event.data = op.kind == AccessKind::Write ? op.src : nullptr;
    return event;
}

/** Observer of the controller's traffic event stream. */
class TrafficSink
{
  public:
    virtual ~TrafficSink() = default;

    /** One executed operation. */
    virtual void onAccess(const AccessEvent &event) = 0;

    /** End of one executed batch (also fired once per single-op call). */
    virtual void onBatch(const BatchSummary &) {}
};

/**
 * Fan-out multiplexer owned by the controller. Attach/detach are O(n)
 * and expected at setup/teardown time only; emit is a simple loop and
 * the controller skips it entirely while no sink is attached.
 */
class TrafficHub
{
  public:
    void
    attach(TrafficSink *sink)
    {
        if (sink != nullptr &&
            std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end())
            sinks_.push_back(sink);
    }

    void
    detach(TrafficSink *sink)
    {
        sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink),
                     sinks_.end());
    }

    bool empty() const { return sinks_.empty(); }

    void
    emit(const AccessEvent &event) const
    {
        for (TrafficSink *s : sinks_)
            s->onAccess(event);
    }

    void
    emitBatch(const BatchSummary &summary) const
    {
        for (TrafficSink *s : sinks_)
            s->onBatch(summary);
    }

  private:
    std::vector<TrafficSink *> sinks_;
};

} // namespace api

using api::AccessEvent;
using api::TrafficHub;
using api::TrafficSink;

} // namespace buddy
