/**
 * @file
 * The TrafficSink observer API: an engine's stream of finished batches.
 *
 * A sharded engine (engine/engine.h) holds at most one sink and hands
 * it each finished batch once, after the batch's timing pass: the ops
 * in submission order, one AccessInfo per op (its traffic, stored
 * payload size and all-zero flag), and the batch summary. The batch is
 * the unit because a fixed buddy slot means entries never depend on
 * each other (paper Section 3.3), so a per-op callback would carry
 * nothing the batch does not. The trace recorder (TraceRecorderSink in
 * engine/trace.h) is the consumer in src/. Timeline consumers use the
 * BatchObserver hook (obs/hooks.h), which receives the engine's
 * BatchRecord instead.
 */

#pragma once

#include "api/access.h"

namespace buddy {
namespace api {

/** Observer of an engine's finished batches. */
class TrafficSink
{
  public:
    virtual ~TrafficSink() = default;

    /**
     * One finished batch: ops(), results() and summary() are final and
     * addresses are engine-global. The batch is valid only during the
     * call, so a sink that keeps write payloads (the trace recorder)
     * must copy the bytes.
     */
    virtual void onBatch(const AccessBatch &batch) = 0;
};

} // namespace api

using api::TrafficSink;

} // namespace buddy
