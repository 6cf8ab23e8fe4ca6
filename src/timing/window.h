/**
 * @file
 * RequestWindow: MSHR-style windowed scheduling of link round trips.
 *
 * An access's serial link charge is the unloaded cost() of its round
 * trip: it pays the full link latency, which makes the serial totals a
 * latency-bound upper bound. A real GPU keeps a finite pool of misses
 * outstanding (the MSHRs modeled by gpusim's SimConfig::mshrsPerSm) and
 * hides most of the round-trip latency behind them. RequestWindow
 * reproduces that discipline over LatencyBandwidthServers
 * (link_model.h):
 *
 *   - at most W round trips are in flight at once; request i may issue
 *     no earlier than the completion of request i-W (and never before a
 *     previously issued request — program order);
 *   - the per-direction bandwidth pipes serialize transfers FCFS
 *     exactly as in the serial model;
 *   - completion is FCFS (in order): a request's completion time is
 *     clamped to at least its predecessor's, so the completion frontier
 *     is monotone and per-request charges telescope.
 *
 * issue() returns the advance of the completion frontier caused by the
 * request; the charges over a request stream sum to elapsed(), the
 * windowed makespan of the stream. All arithmetic is unsigned 64-bit
 * integer, so totals are exact and reproducible bit-for-bit.
 *
 * Limit behavior (pinned by tests/test_window.cc):
 *
 *   W = 1   every request issues at its predecessor's completion; the
 *           charge is exactly latency + transfer — bit-identical to the
 *           serial cost() of every request.
 *   W -> oo the window never binds; the stream is limited only by the
 *           bandwidth pipes and the makespan converges to the transfer
 *           occupancy (one trailing latency remains exposed).
 *
 * A window is a *scheduling* layer: it owns private servers, and
 * cost() reads only the link timing, so the serial per-operation
 * charges — and every determinism contract resting on their purity —
 * are independent of what the window has issued. The windowed totals
 * are themselves a pure function of the scheduled request stream, and
 * reset() returns a window to its freshly constructed state, so a
 * window reset per batch yields the same totals as a new one. One
 * scheduler feeds the windows: windowOp() (core/window_pass.h),
 * which issues a batch's submission-order stream op by op, once per
 * GPU boundary — called by BuddyController::execute and by
 * ShardedEngine, through windowBatch() under WindowMode::Merged — and
 * writes the batch's cycle totals, so they are independent of sharding
 * and thread scheduling.
 *
 * WindowGroup (below) schedules one access stream over a *pair* of
 * windows — the device link and the buddy link run in parallel — and
 * additionally reports the combined (cross-link) completion frontier,
 * whose telescoped per-batch total is max(device makespan, buddy
 * makespan) rather than their sum.
 *
 * Codec stage: a WindowGroup optionally carries a CodecStage — the
 * inline (de)compression unit (CodecTiming, link_model.h) the access
 * stream shares. Compression work enters the pipe as soon as the unit
 * accepts it (payloads are available at submission); decompression
 * work enters when the op's link transfers complete. The codec-charged
 * frontier — the completion of each op *including* its codec work — is
 * tracked alongside the combined one and telescopes the same way, so a
 * batch's codec-charged makespan is the combined makespan plus exactly
 * the codec time the unit could not hide behind link transfers. A free
 * unit (cyclesPerEntry == 0) is an exact arithmetic no-op: the
 * codec-charged frontier equals the combined frontier cycle-for-cycle,
 * and no pre-existing total changes — the property the
 * CodecTiming{0, *} bit-compatibility contract rests on.
 *
 * Zero-size requests: cost() and issue() of zero bytes are free, and
 * issue() occupies no window slot — the shared zero-size request
 * contract documented in timing/link_model.h and pinned across all
 * three timing layers by tests/test_link_model.cc.
 */

#pragma once

#include <algorithm>
#include <deque>
#include <utility>

#include "common/types.h"
#include "timing/link_model.h"

namespace buddy {
namespace timing {

/**
 * Fail fast on window/link configurations the windowed replay cannot
 * honor, naming @p what (e.g. "BuddyConfig::buddyLink") in the error:
 *
 *   - a window of 0 slots could never issue a request (deadlock);
 *   - a windowed (W > 1) replay over a non-free link requires finite
 *     bandwidth in both directions — bytesPerCycle of 0 means an
 *     infinite pipe, whose bandwidth bound is degenerate.
 *
 * Completely free timings (untimed stores) pass at any window.
 */
void validateWindowedTiming(const LinkTiming &timing, u64 window,
                            const char *what);

/**
 * A windowed (MSHR-style) scheduler over one link (see file header).
 * Reset per request stream — e.g. per access batch — so windowed
 * totals stay additive across batches.
 */
class RequestWindow
{
  public:
    /**
     * @param timing link parameters (servers are private to the window).
     * @param window outstanding round trips W (>= 1; fail-fast on 0).
     */
    RequestWindow(const LinkTiming &timing, u64 window)
        : timing_(timing), window_(window),
          read_(timing.latency, timing.readBytesPerCycle),
          write_(timing.latency, timing.writeBytesPerCycle)
    {
        validateWindowedTiming(timing, window, "RequestWindow");
    }

    /**
     * Return to the freshly constructed state (same timing and W):
     * idle servers, no outstanding requests, zero frontiers and
     * counters. Clearing inflight_ keeps its map and a node, so the
     * reset itself allocates nothing, unlike building a new window.
     */
    void
    reset()
    {
        read_ = LatencyBandwidthServer(timing_.latency,
                                       timing_.readBytesPerCycle);
        write_ = LatencyBandwidthServer(timing_.latency,
                                        timing_.writeBytesPerCycle);
        inflight_.clear();
        lastIssue_ = 0;
        frontier_ = 0;
        issued_ = 0;
        maxOutstanding_ = 0;
        lastStall_ = 0;
    }

    /** Serial (unloaded) cost of a lone @p bytes round trip:
     *  latency + transfer, 0 for zero bytes. */
    Cycles
    cost(LinkDir dir, u64 bytes) const
    {
        return dir == LinkDir::Read ? read_.cost(bytes) : write_.cost(bytes);
    }

    /**
     * Issue a @p bytes round trip in direction @p dir as soon as a
     * window slot is free. Zero-byte requests are free and do not
     * occupy a slot (matching cost(dir, 0) == 0).
     *
     * @return the completion-frontier advance this request caused; the
     *         charges of a stream telescope to elapsed().
     */
    Cycles
    issue(LinkDir dir, u64 bytes)
    {
        if (bytes == 0) {
            lastStall_ = 0;
            return 0;
        }
        // Program order: never issue before an earlier request. The
        // window constraint: request i waits for request i-W to
        // complete (inflight_ holds the completion times of the still-
        // outstanding requests; FCFS completion keeps its front the
        // oldest).
        Cycles at = lastIssue_;
        if (inflight_.size() == window_) {
            at = std::max(at, inflight_.front());
            inflight_.pop_front();
        }
        lastStall_ = at - lastIssue_;
        lastIssue_ = at;
        const Cycles done = server(dir).request(at, bytes);
        const Cycles fin = std::max(done, frontier_); // FCFS completion
        inflight_.push_back(fin);
        // Retire entries that can no longer bind an issue time: issue
        // times are monotone, so any completion at or before lastIssue_
        // would be a vacuous max when it reached the front. Completions
        // are FCFS (fin monotone), so such entries always form a prefix
        // and dropping them keeps the front aligned with request i-W
        // (the consultation at size()==W is simply skipped for exactly
        // the requests whose constraint was provably vacuous). Bounds
        // the deque by the outstanding depth instead of by min(W,
        // stream): a huge W over a stream the completion frontier keeps
        // overtaking (FCFS-absorbed requests) no longer retains every
        // charge-0 completion until its slot turn.
        while (!inflight_.empty() && inflight_.front() <= lastIssue_)
            inflight_.pop_front();
        maxOutstanding_ = std::max<u64>(maxOutstanding_, inflight_.size());
        const Cycles charged = fin - frontier_;
        frontier_ = fin;
        ++issued_;
        return charged;
    }

    /** Windowed makespan of the stream issued so far. */
    Cycles elapsed() const { return frontier_; }

    /** Requests issued (zero-byte requests excluded). */
    u64 issued() const { return issued_; }

    /**
     * Requests currently tracked as outstanding: issued, not yet
     * retired by the window constraint or by completing at or before
     * the issue frontier. Bounded by min(window(), issued()); the
     * memory-bound regression tests pin that it stays proportional to
     * the stream's achieved concurrency, not to min(W, stream length).
     */
    u64 outstanding() const { return inflight_.size(); }

    /**
     * Peak outstanding() ever reached — the stream's achieved
     * concurrency, sampled post-issue (observability feed; see
     * obs/hooks.h BatchRecord).
     */
    u64 maxOutstanding() const { return maxOutstanding_; }

    /**
     * Cycles the most recent issue() waited on the window constraint
     * (0 when a slot was free, when the request was zero-byte, or
     * before any issue). Sampled per request into the observability
     * stall histograms.
     */
    Cycles lastStall() const { return lastStall_; }

    /** Window size W. */
    u64 window() const { return window_; }

    const LinkTiming &timing() const { return timing_; }

    /** The private read pipe (occupancy = the bandwidth bound). */
    const LatencyBandwidthServer &reader() const { return read_; }

    /** The private write pipe. */
    const LatencyBandwidthServer &writer() const { return write_; }

  private:
    LatencyBandwidthServer &
    server(LinkDir dir)
    {
        return dir == LinkDir::Read ? read_ : write_;
    }

    LinkTiming timing_;
    u64 window_;
    LatencyBandwidthServer read_;
    LatencyBandwidthServer write_;

    /** Completion times of the still-outstanding requests, oldest
     *  first (fin is monotone, so the deque is sorted). Entries leave
     *  either through the window constraint (front pop at size W) or
     *  eagerly once their completion can no longer bind an issue time
     *  (see issue()), so the depth is O(min(W, outstanding)), never
     *  O(stream). */
    std::deque<Cycles> inflight_;

    Cycles lastIssue_ = 0;
    Cycles frontier_ = 0;
    u64 issued_ = 0;
    u64 maxOutstanding_ = 0;
    Cycles lastStall_ = 0;
};

/**
 * The inline (de)compression unit of one scheduled access stream: a
 * fixed-function FCFS pipeline parameterized by CodecTiming. Work is
 * admitted in stream order; a new entry may enter every cyclesPerEntry
 * cycles and leaves latency() cycles after it entered. Like the
 * windows, a stage is reset per request stream (per batch), so
 * codec-charged totals stay additive across batches. With free timing
 * every admit() is an exact no-op (returns the availability time,
 * advances nothing).
 */
class CodecStage
{
  public:
    explicit CodecStage(const CodecTiming &timing) : timing_(timing) {}

    /** Return to the freshly constructed state: an empty pipe and
     *  zero counters. */
    void
    reset()
    {
        nextAccept_ = 0;
        lastStall_ = 0;
        entries_ = 0;
    }

    /**
     * Admit one entry whose input becomes available at @p avail.
     * @return the cycle the entry leaves the pipe.
     */
    Cycles
    admit(Cycles avail)
    {
        if (timing_.cyclesPerEntry == 0)
            return avail;
        const Cycles start = std::max(avail, nextAccept_);
        lastStall_ = start - avail;
        nextAccept_ = start + timing_.cyclesPerEntry;
        ++entries_;
        return start + timing_.latency();
    }

    /** Entries the stage processed (free-timing admits excluded). */
    u64 entries() const { return entries_; }

    /** Cycles the most recent admit() waited on the initiation
     *  interval (backpressure from earlier entries). */
    Cycles lastStall() const { return lastStall_; }

    const CodecTiming &timing() const { return timing_; }

  private:
    CodecTiming timing_;
    Cycles nextAccept_ = 0; ///< next cycle the pipe can accept an entry
    Cycles lastStall_ = 0;
    u64 entries_ = 0;
};

/** Codec work one WindowGroup::issue() schedules for its access. */
enum class CodecWork : u8 {
    None,       ///< no codec involvement (zero/raw entries)
    Compress,   ///< write path: input available at submission
    Decompress, ///< read path: input available at link completion
};

/** Per-link and combined charges of one WindowGroup::issue(). */
struct GroupCharge
{
    /** Device-link completion-frontier advance (RequestWindow::issue). */
    Cycles device = 0;

    /** Buddy-link completion-frontier advance. */
    Cycles buddy = 0;

    /**
     * Advance of the *combined* completion frontier — the max over the
     * two links' frontiers. The combined charges of a stream telescope
     * to WindowGroup::combinedElapsed(), so per-batch they sum to
     * max(device makespan, buddy makespan): the makespan of the batch
     * when the two links run in parallel.
     */
    Cycles combined = 0;

    /**
     * Advance of the codec-charged frontier: the op's completion
     * *including* its (de)compression through the group's CodecStage.
     * Telescopes to WindowGroup::chargedElapsed(); always >= the
     * combined charge's telescoped total, and equal to it when the
     * codec timing is free or the stream carries no codec work.
     */
    Cycles codecCharged = 0;
};

/**
 * A pair of RequestWindows scheduling one access stream over two
 * parallel links (device memory and the buddy interconnect).
 *
 * An access's device and buddy halves occupy *different* links and
 * proceed concurrently, so the makespan of a batch is not the sum of
 * the per-link windowed makespans but their max: the batch is done when
 * the slower link drains. WindowGroup issues both halves of each access
 * and tracks that combined frontier; the per-access combined charges
 * telescope exactly like the per-link ones, so summing them over a
 * batch yields the combined makespan, bracketed by
 *
 *   max(device, buddy)  <=  combined  <=  device + buddy
 *
 * per batch (equality with max holds for the frontier of a group; the
 * bracket is what the fuzz tests pin through the whole stack). Like
 * RequestWindow, a group is reset per request stream (per batch) and
 * all arithmetic is exact unsigned 64-bit.
 *
 * The optional codec stage (see the file header) adds a fourth,
 * codec-charged frontier: each op's completion including its codec
 * work, clamped monotone like the others. Its telescoped per-batch
 * total — chargedElapsed() — is bracketed by
 *
 *   combined  <=  charged  <=  combined + Σ codec latencies
 *
 * and collapses to the combined makespan exactly when the codec timing
 * is free or no op carries codec work.
 */
class WindowGroup
{
  public:
    WindowGroup(RequestWindow device, RequestWindow buddy,
                const CodecTiming &codec = CodecTiming{})
        : device_(std::move(device)), buddy_(std::move(buddy)),
          codec_(codec)
    {}

    /** Return both windows, the codec stage and the two frontiers to
     *  their freshly constructed state (RequestWindow::reset()). */
    void
    reset()
    {
        device_.reset();
        buddy_.reset();
        codec_.reset();
        combined_ = 0;
        charged_ = 0;
    }

    /**
     * Issue one access: @p device_bytes over the device link and
     * @p buddy_bytes over the buddy link, both in direction @p dir,
     * plus the access's codec involvement @p work. Either byte count
     * may be zero (free, occupies no slot). Compression work enters
     * the codec pipe as soon as it accepts (the payload exists at
     * submission); decompression work enters once the op's link
     * transfers have delivered the stored bytes.
     */
    GroupCharge
    issue(LinkDir dir, u64 device_bytes, u64 buddy_bytes,
          CodecWork work = CodecWork::None)
    {
        GroupCharge c;
        c.device = device_.issue(dir, device_bytes);
        c.buddy = buddy_.issue(dir, buddy_bytes);
        const Cycles fin =
            std::max(device_.elapsed(), buddy_.elapsed());
        c.combined = fin - combined_;
        combined_ = fin;

        // The op's completion including codec work. Decompression
        // waits for the links this op actually used (an untouched
        // link's backlog is not a data dependency); compression
        // streams into the unit from submission on.
        Cycles op_done = combined_;
        if (work != CodecWork::None) {
            Cycles avail = 0;
            if (work == CodecWork::Decompress) {
                if (device_bytes > 0)
                    avail = std::max(avail, device_.elapsed());
                if (buddy_bytes > 0)
                    avail = std::max(avail, buddy_.elapsed());
            }
            op_done = std::max(op_done, codec_.admit(avail));
        }
        const Cycles charged = std::max(charged_, op_done);
        c.codecCharged = charged - charged_;
        charged_ = charged;
        return c;
    }

    /** Combined (cross-link) makespan of the stream issued so far. */
    Cycles combinedElapsed() const { return combined_; }

    /** Codec-charged makespan of the stream issued so far: the
     *  combined makespan plus the codec time the unit could not hide
     *  behind link transfers. Equals combinedElapsed() when the codec
     *  timing is free. */
    Cycles chargedElapsed() const { return charged_; }

    /** The device-link window. */
    const RequestWindow &device() const { return device_; }

    /** The buddy-link window. */
    const RequestWindow &buddy() const { return buddy_; }

    /** The stream's codec stage. */
    const CodecStage &codec() const { return codec_; }

  private:
    RequestWindow device_;
    RequestWindow buddy_;
    CodecStage codec_;

    /** Combined completion frontier: max over the link frontiers. */
    Cycles combined_ = 0;

    /** Codec-charged completion frontier: op completions including
     *  codec work, >= combined_ always. */
    Cycles charged_ = 0;
};

} // namespace timing
} // namespace buddy
