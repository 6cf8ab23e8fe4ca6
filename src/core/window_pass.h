/**
 * @file
 * The windowed timing pass: the one place a batch's traffic is
 * scheduled through MSHR-style link windows (timing/window.h).
 *
 * Windowed timing is a pure function of each op's direction, sectors
 * and codec pass, which the functional pass (BuddyController) fills in.
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
 * Window one batch through @p windows, a fresh group (the batch is the
 * latency-overlap scope). Reads each op's direction from @p ops and its
 * sectors and codec pass from @p infos (codecCycles > 0 marks a pass:
 * compression for writes, decompression otherwise); writes the four
 * *WindowCycles fields of every info and adds them to @p summary. When
 * given, @p occupancy and @p stall sample each op's post-issue window
 * occupancy (both links) and window-constraint wait.
 */
void windowBatch(const std::vector<AccessRequest> &ops,
                 std::vector<AccessInfo> &infos,
                 timing::WindowGroup &windows, BatchSummary &summary,
                 obs::LatencyHistogram *occupancy = nullptr,
                 obs::LatencyHistogram *stall = nullptr);

} // namespace buddy
