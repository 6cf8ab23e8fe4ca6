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
        const timing::LinkDir dir =
            write ? timing::LinkDir::Write : timing::LinkDir::Read;
        const u64 dev_bytes =
            static_cast<u64>(info.deviceSectors) * kSectorBytes;
        const u64 bud_bytes =
            static_cast<u64>(info.buddySectors) * kSectorBytes;
        timing::CodecWork work = timing::CodecWork::None;
        if (info.codecPass)
            work = write ? timing::CodecWork::Compress
                         : timing::CodecWork::Decompress;
        info.codecCycles =
            info.codecPass ? windows.codec().timing().latency() : 0;
        summary.deviceCycles += windows.device().cost(dir, dev_bytes);
        summary.buddyCycles += windows.buddy().cost(dir, bud_bytes);
        summary.codecCycles += info.codecCycles;

        const timing::GroupCharge charge =
            windows.issue(dir, dev_bytes, bud_bytes, work);
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
