/**
 * @file
 * Fractional-rate bandwidth servers: the memory-system flavour of the
 * timing subsystem.
 *
 * These model pipes whose service rate is expressed in 32 B sectors per
 * core cycle and may be well below one (a scaled-down NVLink serves
 * ~0.7 sectors/cycle), so time is fractional (SimTime). Requests are
 * serialized FCFS; the completion time of a k-sector request issued at
 * time t is max(t, next_free) + k/rate + latency. This captures the two
 * first-order effects the paper's evaluation depends on: queueing under
 * bandwidth saturation, and the ~6x rate gap between device memory and
 * the interconnect (Section 4.2).
 *
 * The integer-cycle servers the controller's timing pass charges
 * round trips through live next door in timing/link_model.h; the two
 * layers share
 * this directory so the repo has a single home for simulated time.
 */

#pragma once

// buddy-lint: allow-file(float-cycle) documented fractional-rate layer: SimTime is double by design (rates well below one sector/cycle); feeds only the gpusim memory system, never the bit-identical sim/ cycle totals
#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace buddy {
namespace timing {

/** Fractional-cycle time used by the memory-system servers. */
using SimTime = double;

/** One FCFS fractional-rate server (a DRAM channel or link direction). */
class SectorServer
{
  public:
    /**
     * @param sectors_per_cycle service rate.
     * @param latency fixed pipe latency in cycles.
     */
    SectorServer(double sectors_per_cycle, double latency)
        : rate_(sectors_per_cycle), latency_(latency)
    {
        BUDDY_CHECK(rate_ > 0.0, "server rate must be positive");
    }

    /**
     * Enqueue a @p sectors transfer at time @p now.
     * Zero sectors is a non-request: returns @p now with no latency, no
     * busy time, and no counter update — the same zero-size request
     * contract the integer-cycle layer documents in
     * timing/link_model.h and tests/test_link_model.cc pins across all
     * three layers.
     * @return completion time.
     */
    SimTime
    request(SimTime now, unsigned sectors)
    {
        if (sectors == 0)
            return now;
        const SimTime start = std::max(now, nextFree_);
        const SimTime xfer =
            static_cast<SimTime>(sectors) / rate_;
        nextFree_ = start + xfer;
        busy_ += xfer;
        sectors_ += sectors;
        return nextFree_ + latency_;
    }

    /** Time the pipe becomes idle. */
    SimTime nextFree() const { return nextFree_; }

    /** Total busy time (for utilization). */
    SimTime busyTime() const { return busy_; }

    /** Total sectors transferred. */
    u64 sectorsTransferred() const { return sectors_; }

  private:
    double rate_;
    double latency_;
    SimTime nextFree_ = 0.0;
    SimTime busy_ = 0.0;
    u64 sectors_ = 0;
};

/** The device-memory side: N interleaved channels. */
class DramModel
{
  public:
    DramModel(unsigned channels, double total_sectors_per_cycle,
              double latency)
    {
        BUDDY_CHECK(channels > 0, "need at least one DRAM channel");
        const double per_chan =
            total_sectors_per_cycle / static_cast<double>(channels);
        for (unsigned c = 0; c < channels; ++c)
            chans_.emplace_back(per_chan, latency);
    }

    /** Route a request to the channel owning @p line_addr. */
    SimTime
    request(SimTime now, u64 line_addr, unsigned sectors)
    {
        return chans_[line_addr % chans_.size()].request(now, sectors);
    }

    u64
    sectorsTransferred() const
    {
        u64 s = 0;
        for (const auto &c : chans_)
            s += c.sectorsTransferred();
        return s;
    }

    /** Aggregate utilization over an interval of @p cycles. */
    double
    utilization(SimTime cycles) const
    {
        if (cycles <= 0)
            return 0.0;
        SimTime busy = 0;
        for (const auto &c : chans_)
            busy += c.busyTime();
        return busy / (cycles * static_cast<SimTime>(chans_.size()));
    }

  private:
    std::vector<SectorServer> chans_;
};

/** The interconnect: full-duplex, one server per direction. */
class SectorLink
{
  public:
    SectorLink(double sectors_per_cycle_per_dir, double latency)
        : toHost_(sectors_per_cycle_per_dir, latency),
          fromHost_(sectors_per_cycle_per_dir, latency)
    {}

    /** A read sourced from buddy/host memory (from-host direction). */
    SimTime
    read(SimTime now, unsigned sectors)
    {
        return fromHost_.request(now, sectors);
    }

    /** A write headed to buddy/host memory (to-host direction). */
    SimTime
    write(SimTime now, unsigned sectors)
    {
        return toHost_.request(now, sectors);
    }

    u64
    sectorsTransferred() const
    {
        return toHost_.sectorsTransferred() +
               fromHost_.sectorsTransferred();
    }

  private:
    SectorServer toHost_;
    SectorServer fromHost_;
};

} // namespace timing
} // namespace buddy
