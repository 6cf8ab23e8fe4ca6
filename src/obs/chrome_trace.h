/**
 * @file
 * ChromeTraceSink: render the simulated-cycle execution timeline as
 * Chrome trace_event JSON, loadable in Perfetto (ui.perfetto.dev) or
 * chrome://tracing.
 *
 * The sink is a BatchObserver (obs/hooks.h): attach it to a sharded
 * engine with setBatchObserver(). It lays the engine's BatchRecords
 * out on one timeline whose clock is *simulated cycles*, not wall
 * time. Batches are placed end-to-end in submission (`seq`) order,
 * each spanning its combined windowed makespan:
 *
 *   pid "tenants"  one row per tenant; "X" span per batch with the
 *                  batch's ops/traffic in args — the per-tenant service
 *                  timeline the QoS scheduler shapes.
 *   pid "gpus"     one row per shard; "X" span per participating shard
 *                  sized by that shard's own makespan, so per-shard
 *                  load imbalance is visible as ragged span ends.
 *   counters       "C" events at each batch start: window occupancy
 *                  (peak outstanding round trips per link) and
 *                  cumulative sector traffic per link.
 *
 * Service-clock spans: the service scheduler can mirror its per-batch
 * timing into the sink via noteServiceSpan(), keyed by the engine
 * submit sequence. A batch with a service span is
 * placed at its true open-loop times — a "queued" span from arrival to
 * admission and the batch span from admission to completion on the
 * scheduler's simulated clock — instead of the synthetic end-to-end
 * layout (which remains the model for batches without spans).
 *
 * Determinism: every field is integer simulated-time state and the
 * layout sorts by seq, so the rendered JSON is byte-identical
 * run-to-run for the same workload — toJson() output can be diffed as
 * a regression test, exactly like obs::exportJson().
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/hooks.h"

namespace buddy {
namespace obs {

/** The Chrome trace_event renderer (see file header). */
class ChromeTraceSink : public BatchObserver
{
  public:
    void onBatchComplete(const BatchRecord &record) override;

    /**
     * Pin the batch submitted as engine sequence @p seq to the service
     * scheduler's clock: it arrived (became eligible) at @p arrival,
     * was admitted at @p admit, and completed at @p complete, all in
     * simulated cycles (arrival <= admit < complete — checked). The
     * batch's spans are then laid out at these true open-loop times.
     */
    void noteServiceSpan(u64 seq, u64 arrival, u64 admit, u64 complete);

    /** Completed batches recorded so far. */
    std::size_t batches() const { return records_.size(); }

    /**
     * Render the timeline as a complete Chrome trace_event JSON
     * document ({"traceEvents":[...]}); byte-stable for identical
     * record state.
     */
    std::string toJson() const;

    /** Render and write to @p path (fatal on I/O failure). */
    void save(const std::string &path) const;

  private:
    /** One scheduler-clock pin (see noteServiceSpan). */
    struct ServiceSpan
    {
        u64 arrival = 0;
        u64 admit = 0;
        u64 complete = 0;
    };

    std::vector<BatchRecord> records_;
    std::map<u64, ServiceSpan> serviceSpans_; ///< by engine submit seq
};

} // namespace obs
} // namespace buddy
