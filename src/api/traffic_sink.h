/**
 * @file
 * The TrafficSink observer API: the per-operation traffic stream.
 *
 * The controller and the sharded engine emit an AccessEvent per
 * executed operation and a BatchSummary per batch. Both build every
 * event with makeEvent() from the finished batch — the op and its
 * AccessInfo after the batch's one timing pass — so an event is
 * defined in one place. An event carries the op's traffic and its
 * write payload; the batch's simulated time arrives in onBatch()'s
 * summary. The trace recorder (TraceRecorderSink in engine/trace.h)
 * is the consumer in src/; tests attach counting sinks. (The
 * controller's stats() is the fold of the summaries sinks receive in
 * onBatch() — asserted by tests/test_api_batch.cc.) Timeline consumers
 * use the batch-level BatchObserver hook (obs/hooks.h) instead.
 * Sinks attach to a controller's or an engine's TrafficHub; emission
 * is zero-cost when no sink is attached.
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
 * @p info.
 */
inline AccessEvent
makeEvent(const AccessRequest &op, const AccessInfo &info)
{
    AccessEvent event;
    event.kind = op.kind;
    event.va = op.va;
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

    /** End of one executed batch, after its last onAccess(). */
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
