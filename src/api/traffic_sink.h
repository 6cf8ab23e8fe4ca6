/**
 * @file
 * The TrafficSink observer API: the per-operation traffic stream.
 *
 * The controller and the sharded engine emit an AccessEvent per
 * executed operation and a BatchSummary per batch. Both hand the
 * finished batch to emitBatch(), which builds every event from an op
 * and its AccessInfo after the batch's one timing pass, so an event is
 * defined in one place. An event carries the op's traffic and its
 * write payload; the batch's simulated time arrives in onBatch()'s
 * summary. The trace recorder (TraceRecorderSink in engine/trace.h)
 * is the consumer in src/; tests attach counting sinks. (The
 * controller's stats() is the fold of the summaries sinks receive in
 * onBatch() — asserted by tests/test_api_batch.cc.) Timeline consumers
 * use the batch-level BatchObserver hook (obs/hooks.h) instead.
 * A controller or an engine holds at most one sink (attachSink()) and
 * hands it each finished batch through emitBatch(); emission is
 * zero-cost when no sink is attached.
 */

#pragma once

#include <cstddef>

#include "api/access.h"
#include "common/check.h"
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
 * Attach @p sink as the one sink in @p slot (a controller's or an
 * engine's). Re-attaching the attached sink is a no-op; attaching a
 * second, different sink is a fatal error.
 */
inline void
attachSink(TrafficSink *&slot, TrafficSink *sink)
{
    BUDDY_CHECK(slot == nullptr || slot == sink,
                "a different traffic sink is already attached");
    slot = sink;
}

/** Detach @p sink from @p slot; a no-op unless it is the one attached. */
inline void
detachSink(TrafficSink *&slot, const TrafficSink *sink)
{
    if (slot == sink)
        slot = nullptr;
}

/**
 * Hand @p sink the finished @p batch: each op's event, built from the
 * op and its result, in plan order, then the batch's summary.
 */
inline void
emitBatch(TrafficSink &sink, const AccessBatch &batch)
{
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const AccessRequest &op = batch.ops()[i];
        sink.onAccess({op.kind, op.va, batch.result(i),
                       op.kind == AccessKind::Write ? op.src : nullptr});
    }
    sink.onBatch(batch.summary());
}

} // namespace api

using api::AccessEvent;
using api::TrafficSink;

} // namespace buddy
