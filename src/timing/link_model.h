/**
 * @file
 * Link and codec timing parameters, and the integer-cycle
 * latency/bandwidth server the windowed timing pass schedules through.
 *
 * Every BackingStore carries the LinkTiming of its link (see
 * api/backing_store.h); the stores themselves keep no clock. An
 * access's link charge is a pure function of its traffic: a lone round
 * trip of b bytes costs the unloaded
 *
 *     cost(bytes) = latency + ceil(bytes / bytesPerCycle)
 *
 * which the batch's one timing pass (core/window_pass.h) writes into
 * AccessInfo::deviceCycles/buddyCycles through RequestWindow::cost
 * (timing/window.h). That purity is the property the engine's
 * determinism contract rests on: per-operation cycle charges are
 * independent of shard placement and thread scheduling, so cross-shard
 * cycle totals merge by addition and are bit-identical to a
 * single-controller run (tests/test_link_model.cc, tests/test_engine.cc).
 *
 * The servers themselves are general FCFS queues over a simulated
 * clock: driven with overlapping arrival times (as the MSHR-style
 * windows do) they serialize on the pipe and accumulate queueing
 * delay. The gpusim memory system's fractional-rate servers live in
 * timing/servers.h; both layers share this directory so the repo has
 * one home for time.
 *
 * All arithmetic is unsigned 64-bit integer: cycle totals are exact,
 * reproducible run-to-run, and safe to compare bit-for-bit in tests.
 *
 * Zero-size request contract (shared by every timing layer): a request
 * for zero bytes / zero sectors is a *non-request* — it costs nothing
 * (not even latency), advances no clock, occupies no pipe and no
 * window slot, and leaves all counters untouched. The three layers pin
 * this identically: LatencyBandwidthServer::cost(0) == 0 and
 * request(now, 0) == now with no state change,
 * SectorServer::request(now, 0) == now (timing/servers.h), and
 * RequestWindow::cost(dir, 0) == 0 and RequestWindow::issue(dir, 0)
 * == 0 without consuming a slot (timing/window.h). One cross-layer
 * test in tests/test_link_model.cc asserts all of them against each
 * other, so the layers cannot drift apart silently.
 */

#pragma once

#include <algorithm>

#include "common/types.h"

namespace buddy {
namespace timing {

/** Transfer direction through a link (from the GPU's point of view). */
enum class LinkDir : u8 {
    Read,  ///< data flowing toward the GPU (loads, fills)
    Write, ///< data flowing away from the GPU (stores, writebacks)
};

/**
 * Latency/bandwidth parameters of one link. A bytesPerCycle of 0 means
 * infinite bandwidth (no transfer cycles); latency 0 means none. The
 * default-constructed timing is free: every request through it costs
 * nothing.
 */
struct LinkTiming
{
    /** Fixed per-request latency in core cycles. */
    Cycles latency = 0;

    /** Per-direction bandwidth in bytes per core cycle (0 = infinite). */
    u64 readBytesPerCycle = 0;
    u64 writeBytesPerCycle = 0;

    bool
    free() const
    {
        return latency == 0 && readBytesPerCycle == 0 &&
               writeBytesPerCycle == 0;
    }
};

/**
 * Latency/throughput parameters of an inline (de)compression unit.
 *
 * The unit is modeled as a fixed-function pipeline: it accepts a new
 * 128 B entry every cyclesPerEntry cycles (the initiation interval) and
 * an entry leaves the pipe latency() = cyclesPerEntry * pipelineDepth
 * cycles after it entered. cyclesPerEntry == 0 is the free unit — it
 * charges nothing and is an exact arithmetic no-op in the window
 * scheduler, whatever the depth — so CodecTiming{0, *} reproduces the
 * codec-free totals bit-for-bit. Every codec carries a
 * CodecTiming (api/codec_registry.h); BuddyConfig::codecTiming
 * overrides it per controller.
 */
struct CodecTiming
{
    /** Initiation interval: cycles between entries entering the pipe
     *  (0 = free unit, no charge, exact no-op). */
    Cycles cyclesPerEntry = 0;

    /** Pipeline depth in stages (values below 1 behave as 1). */
    u64 pipelineDepth = 1;

    /** True when the unit charges nothing. */
    bool
    free() const
    {
        return cyclesPerEntry == 0;
    }

    /** Unloaded pass-through latency of one entry. */
    Cycles
    latency() const
    {
        return cyclesPerEntry * std::max<u64>(pipelineDepth, 1);
    }
};

/**
 * One FCFS latency/bandwidth server over an integer simulated clock.
 * A request of b bytes issued at time t starts at max(t, nextFree),
 * occupies the pipe for ceil(b / bytesPerCycle) cycles, and completes
 * a fixed latency after its transfer finishes.
 */
class LatencyBandwidthServer
{
  public:
    LatencyBandwidthServer(Cycles latency, u64 bytes_per_cycle)
        : latency_(latency), bytesPerCycle_(bytes_per_cycle)
    {}

    /** Transfer cycles of a @p bytes request (no latency, no queue). */
    Cycles
    transferCycles(u64 bytes) const
    {
        if (bytes == 0 || bytesPerCycle_ == 0)
            return 0;
        return (bytes + bytesPerCycle_ - 1) / bytesPerCycle_;
    }

    /** Unloaded request cost: the closed form tests check against.
     *  cost(0) == 0 — a zero-byte request pays no latency either (the
     *  file-level zero-size request contract). */
    Cycles
    cost(u64 bytes) const
    {
        return bytes == 0 ? 0 : latency_ + transferCycles(bytes);
    }

    /**
     * Enqueue a @p bytes transfer arriving at time @p now.
     * Zero bytes is a non-request: returns @p now unchanged with no
     * queueing, no busy time, and no counter update (the zero-size
     * request contract in the file header).
     * @return absolute completion time.
     */
    Cycles
    request(Cycles now, u64 bytes)
    {
        if (bytes == 0)
            return now;
        const Cycles start = std::max(now, nextFree_);
        queued_ += start - now;
        const Cycles xfer = transferCycles(bytes);
        nextFree_ = start + xfer;
        busy_ += xfer;
        bytes_ += bytes;
        ++requests_;
        return nextFree_ + latency_;
    }

    /** Time the pipe becomes idle. */
    Cycles nextFree() const { return nextFree_; }

    /** Total cycles the pipe spent transferring (for utilization). */
    Cycles busyCycles() const { return busy_; }

    /** Total cycles requests waited behind earlier transfers. */
    Cycles queuedCycles() const { return queued_; }

    u64 bytesServed() const { return bytes_; }
    u64 requests() const { return requests_; }

  private:
    Cycles latency_;
    u64 bytesPerCycle_;
    Cycles nextFree_ = 0;
    Cycles busy_ = 0;
    Cycles queued_ = 0;
    u64 bytes_ = 0;
    u64 requests_ = 0;
};

} // namespace timing
} // namespace buddy
