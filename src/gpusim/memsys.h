/**
 * @file
 * The gpusim memory system's view of the timing subsystem.
 *
 * The latency/bandwidth servers themselves live in src/timing/
 * (timing/servers.h: fractional-rate SectorServer / DramModel /
 * SectorLink; timing/link_model.h: the integer-cycle servers the
 * controller's timing pass charges through). This header re-exports
 * the names the simulator uses and provides MemsysReplaySink, the
 * bridge that turns the controller's functional traffic stream into
 * simulated time.
 */

#pragma once

#include <algorithm>

#include "api/traffic_sink.h"
#include "common/types.h"
#include "timing/link_model.h"
#include "timing/servers.h"

namespace buddy {

using timing::DramModel;
using timing::SectorLink;
using timing::SectorServer;
using timing::SimTime;

/**
 * Replays the controller's functional traffic into the bandwidth/latency
 * servers: a TrafficSink that consumes the same event stream as
 * BuddyStats and the profiler, charging each access's device sectors to
 * the DRAM channels and its buddy sectors to the interconnect. Attach
 * it to a BuddyController (or feed it a replayed event log) to get a
 * first-order time estimate of a functional run without standing up the
 * full GpuSimulator pipeline.
 *
 * The stores' link timing can participate in the same clock: with
 * honor_store_cycles set, an event cannot complete before the slower
 * of its serial link charges (AccessInfo::deviceCycles/buddyCycles,
 * written by the controller's timing pass from the stores' LinkTiming)
 * — remote traffic advances the timeline the cache-side servers use
 * instead of living in a separate counter. The coupling is opt-in
 * because every store is timed by default: when this sink's own
 * SectorLink already models the buddy interconnect, folding the store
 * charge in as well would model the same link twice with different
 * calibrations.
 */
class MemsysReplaySink : public api::TrafficSink
{
  public:
    /**
     * @param dram device-memory timing model (charged deviceSectors).
     * @param link interconnect timing model (charged buddySectors).
     * @param issue_interval cycles between successive issued accesses
     *        (models the front end's issue rate).
     * @param honor_store_cycles bound each access's completion by its
     *        serial link charges (remote/peer replays where the store
     *        timing is the link model; see file header).
     */
    MemsysReplaySink(DramModel &dram, SectorLink &link,
                     double issue_interval = 1.0,
                     bool honor_store_cycles = false)
        : dram_(dram), link_(link), issueInterval_(issue_interval),
          honorStoreCycles_(honor_store_cycles)
    {}

    void
    onAccess(const api::AccessEvent &event) override
    {
        SimTime done = now_;
        if (event.info.deviceSectors) {
            done = std::max(done,
                            dram_.request(now_, event.va / kEntryBytes,
                                          event.info.deviceSectors));
        }
        if (event.info.buddySectors) {
            const SimTime link_done =
                event.kind == api::AccessKind::Write
                    ? link_.write(now_, event.info.buddySectors)
                    : link_.read(now_, event.info.buddySectors);
            done = std::max(done, link_done);
        }
        // Serial link charges ride the same clock: the device and buddy
        // portions of one access transfer in parallel, so the slower
        // charge bounds the completion.
        if (honorStoreCycles_) {
            const Cycles store =
                std::max(event.info.deviceCycles, event.info.buddyCycles);
            if (store)
                done = std::max(done, now_ + static_cast<SimTime>(store));
        }
        end_ = std::max(end_, done);
        now_ += issueInterval_;
        ++ops_;
    }

    /** Completion time of the last access replayed so far. */
    SimTime end() const { return end_; }

    /** Accesses replayed. */
    u64 operations() const { return ops_; }

  private:
    DramModel &dram_;
    SectorLink &link_;
    double issueInterval_;
    bool honorStoreCycles_;
    SimTime now_ = 0.0;
    SimTime end_ = 0.0;
    u64 ops_ = 0;
};

} // namespace buddy
