/**
 * @file
 * The timing pass: the one place a batch's traffic is turned into
 * simulated time, serial charges and MSHR-style link windows
 * (timing/window.h) alike. Time is batch-level: the pass writes the
 * BatchSummary totals, not per-op charges.
 *
 * Timing is a pure function of each op's direction, sectors and codec
 * pass, which the functional pass (BuddyController) fills in. The pass
 * runs once per GPU boundary: BuddyController::execute() windows its
 * own batch, op by op; under WindowMode::PerShard ShardedEngine windows
 * each op through its own shard's group, and under WindowMode::Merged
 * the shards run untimed and the engine windows the batch once.
 */

#pragma once

#include <vector>

#include "api/access.h"
#include "obs/metrics.h"
#include "timing/window.h"

namespace buddy {

/**
 * Time one op of a batch through @p windows, a group new or reset per
 * batch (WindowGroup::reset(); the batch is the latency-overlap scope),
 * after the batch's earlier ops. Reads the op's direction from @p kind
 * and its sectors and codec pass from @p info (compression for writes,
 * decompression otherwise); adds its share of the seven cycle totals to
 * @p summary — the serial device/buddy charges (RequestWindow::cost),
 * the codec latency, and the four windowed makespans — and writes
 * info.codecCycles, the one cycle field an AccessInfo keeps. When
 * given, @p occupancy and @p stall sample the op's post-issue window
 * occupancy (both links) and window-constraint wait.
 */
void windowOp(AccessKind kind, AccessInfo &info,
              timing::WindowGroup &windows, BatchSummary &summary,
              obs::LatencyHistogram *occupancy = nullptr,
              obs::LatencyHistogram *stall = nullptr);

/** windowOp() over each op of @p ops in order, @p infos their results:
 *  any traffic record re-times this way, over new windows of any W or
 *  codec timing, without re-executing the batch. */
void windowBatch(const std::vector<AccessRequest> &ops,
                 std::vector<AccessInfo> &infos,
                 timing::WindowGroup &windows, BatchSummary &summary,
                 obs::LatencyHistogram *occupancy = nullptr,
                 obs::LatencyHistogram *stall = nullptr);

} // namespace buddy
