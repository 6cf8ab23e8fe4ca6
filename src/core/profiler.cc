#include "core/profiler.h"

#include <algorithm>

#include "common/check.h"

namespace buddy {

CompressionTarget
Profiler::chooseTarget(const AllocationProfile &p) const
{
    if (cfg_.zeroPageOptimization &&
        p.fitFraction(CompressionTarget::MostlyZero) >= cfg_.mostlyZeroFit)
        return CompressionTarget::MostlyZero;

    // Most aggressive non-zero target within the Buddy Threshold.
    for (const auto t :
         {CompressionTarget::Ratio4, CompressionTarget::Ratio2,
          CompressionTarget::Ratio1_33}) {
        if (p.overflowFraction(t) <= cfg_.buddyThreshold)
            return t;
    }
    return CompressionTarget::None;
}

ProfileDecision
Profiler::decide(const std::vector<AllocationProfile> &profiles) const
{
    ProfileDecision d;
    d.targets.resize(profiles.size(), CompressionTarget::None);

    if (profiles.empty())
        return d;

    if (cfg_.perAllocation) {
        for (std::size_t i = 0; i < profiles.size(); ++i)
            d.targets[i] = chooseTarget(profiles[i]);
    } else {
        // Naive whole-program policy (Figure 7 baseline): one target for
        // the entire program, derived from the footprint-weighted average
        // compressibility of the data and rounded down to an available
        // ratio. With no per-allocation information the target cannot
        // adapt to incompressible regions, so a large fraction of entries
        // overflows to buddy memory while the achieved ratio stays low —
        // the paper's 1.57x/8% (HPC) and 1.18x/32% (DL) behaviour.
        double logical = 0.0, best_device = 0.0;
        for (const auto &p : profiles) {
            logical += static_cast<double>(p.bytes());
            best_device += static_cast<double>(p.bytes()) /
                           p.bestAchievableRatio();
        }
        const double best =
            best_device > 0.0 ? logical / best_device : 1.0;
        CompressionTarget t = CompressionTarget::None;
        for (const auto cand :
             {CompressionTarget::Ratio4, CompressionTarget::Ratio2,
              CompressionTarget::Ratio1_33}) {
            if (targetRatio(cand) <= best) {
                t = cand;
                break;
            }
        }
        std::fill(d.targets.begin(), d.targets.end(), t);
    }

    // Enforce the 4x overall cap from the carve-out size by demoting the
    // most aggressive targets until the cap holds.
    auto overall = [&]() {
        double logical = 0.0, device = 0.0;
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            logical += static_cast<double>(profiles[i].bytes());
            device += static_cast<double>(profiles[i].bytes()) /
                      targetRatio(d.targets[i]);
        }
        return device > 0.0 ? logical / device : 1.0;
    };

    auto demote = [](CompressionTarget t) {
        switch (t) {
          case CompressionTarget::MostlyZero:
            return CompressionTarget::Ratio4;
          case CompressionTarget::Ratio4:
            return CompressionTarget::Ratio2;
          case CompressionTarget::Ratio2:
            return CompressionTarget::Ratio1_33;
          default:
            return CompressionTarget::None;
        }
    };

    int guard = 0;
    while (overall() > cfg_.maxOverallRatio) {
        // Demote the largest allocation holding the most aggressive target.
        std::size_t victim = profiles.size();
        double victim_bytes = -1.0;
        double best_ratio = 1.0;
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            const double r = targetRatio(d.targets[i]);
            if (r > best_ratio ||
                (r == best_ratio &&
                 static_cast<double>(profiles[i].bytes()) > victim_bytes)) {
                best_ratio = r;
                victim = i;
                victim_bytes = static_cast<double>(profiles[i].bytes());
            }
        }
        if (victim == profiles.size())
            break; // everything already at 1x
        d.targets[victim] = demote(d.targets[victim]);
        BUDDY_CHECK(++guard < 10000, "cap demotion failed to converge");
    }

    // Final metrics.
    double logical = 0.0, device = 0.0, overflow_weight = 0.0;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const auto &p = profiles[i];
        logical += static_cast<double>(p.bytes());
        device += static_cast<double>(p.bytes()) /
                  targetRatio(d.targets[i]);
        overflow_weight += static_cast<double>(p.bytes()) *
                           p.overflowFraction(d.targets[i]);
    }
    d.compressionRatio = device > 0.0 ? logical / device : 1.0;
    d.buddyAccessFraction = logical > 0.0 ? overflow_weight / logical : 0.0;

    // Footprint-weighted best-achievable ratio (harmonic over device
    // bytes, i.e. total logical bytes over total best-case device bytes).
    double best_device = 0.0;
    for (const auto &p : profiles)
        best_device +=
            static_cast<double>(p.bytes()) / p.bestAchievableRatio();
    d.bestAchievableRatio =
        best_device > 0.0 ? logical / best_device : 1.0;
    return d;
}

} // namespace buddy
