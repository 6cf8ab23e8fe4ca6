/**
 * @file
 * The timing pass: the one place a batch's traffic is turned into
 * simulated time, serial charges and MSHR-style link windows
 * (timing/window.h) alike. Time is batch-level: the pass writes the
 * BatchSummary totals, not per-op charges.
 *
 * Timing is a pure function of each op's direction, sectors and codec
 * pass, which the functional pass (BuddyController) fills in.
 * The pass runs once per GPU boundary: BuddyController::execute()
 * windows its own batch, which under WindowMode::PerShard is one
 * shard's sub-plan; under WindowMode::Merged the shards run untimed and
 * ShardedEngine windows the merged batch.
 */

#pragma once

#include <vector>

#include "api/access.h"
#include "obs/metrics.h"
#include "timing/window.h"

namespace buddy {

/**
 * Time one batch through @p windows, a group new or reset per batch
 * (WindowGroup::reset(); the batch is the latency-overlap scope).
 * Reads each op's direction from @p ops and its sectors and codec pass
 * from @p infos (compression for writes, decompression otherwise);
 * adds the seven cycle totals to @p summary — the serial device/buddy
 * charges (RequestWindow::cost), the codec latency, and the four
 * windowed makespans — and writes each info's
 * codecCycles, the one cycle field an AccessInfo keeps. Any traffic
 * record re-times this way: over new windows of any W or codec
 * timing, without re-executing the batch. When
 * given, @p occupancy and @p stall sample each op's post-issue window
 * occupancy (both links) and window-constraint wait.
 */
void windowBatch(const std::vector<AccessRequest> &ops,
                 std::vector<AccessInfo> &infos,
                 timing::WindowGroup &windows, BatchSummary &summary,
                 obs::LatencyHistogram *occupancy = nullptr,
                 obs::LatencyHistogram *stall = nullptr);

} // namespace buddy
