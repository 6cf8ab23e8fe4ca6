#include "core/window_pass.h"

#include <algorithm>

#include "common/check.h"

namespace buddy {

void
windowBatch(const std::vector<AccessRequest> &ops,
            std::vector<AccessInfo> &infos, timing::WindowGroup &windows,
            BatchSummary &summary, obs::LatencyHistogram *occupancy,
            obs::LatencyHistogram *stall)
{
    BUDDY_CHECK(ops.size() == infos.size(),
                "window pass needs one AccessInfo per op");
    for (std::size_t i = 0; i < ops.size(); ++i) {
        AccessInfo &info = infos[i];
        const bool write = ops[i].kind == AccessKind::Write;
        // codecCycles > 0 exactly when the op ran the inline unit with
        // non-free timing; under free timing a pass is an exact no-op
        // in the group, so leaving it out changes nothing.
        timing::CodecWork work = timing::CodecWork::None;
        if (info.codecCycles > 0)
            work = write ? timing::CodecWork::Compress
                         : timing::CodecWork::Decompress;
        const timing::GroupCharge charge = windows.issue(
            write ? timing::LinkDir::Write : timing::LinkDir::Read,
            static_cast<u64>(info.deviceSectors) * kSectorBytes,
            static_cast<u64>(info.buddySectors) * kSectorBytes, work);
        info.deviceWindowCycles = charge.device;
        info.buddyWindowCycles = charge.buddy;
        info.combinedWindowCycles = charge.combined;
        info.codecChargedWindowCycles = charge.codecCharged;
        summary.deviceWindowCycles += charge.device;
        summary.buddyWindowCycles += charge.buddy;
        summary.combinedWindowCycles += charge.combined;
        summary.codecChargedWindowCycles += charge.codecCharged;
        if (occupancy != nullptr) {
            occupancy->add(windows.device().outstanding() +
                           windows.buddy().outstanding());
            stall->add(std::max(windows.device().lastStall(),
                                windows.buddy().lastStall()));
        }
    }
}

} // namespace buddy
