/**
 * @file
 * Tests for the GPU performance simulator: cache models, bandwidth
 * servers, and end-to-end invariants of the three compression modes.
 */

#include <gtest/gtest.h>

#include "gpusim/cache.h"
#include "gpusim/gpu.h"
#include "gpusim/runner.h"
#include "timing/servers.h"
#include "workloads/benchmark.h"

namespace buddy {
namespace {

using timing::SectorServer;

// ---------------------------------------------------------------------
// Bandwidth server.
// ---------------------------------------------------------------------

TEST(SectorServer, CompletionIncludesTransferAndLatency)
{
    SectorServer s(2.0, 100.0); // 2 sectors/cycle, 100-cycle latency
    EXPECT_DOUBLE_EQ(s.request(0.0, 4), 2.0 + 100.0);
}

TEST(SectorServer, BackToBackRequestsQueue)
{
    SectorServer s(1.0, 0.0);
    EXPECT_DOUBLE_EQ(s.request(0.0, 4), 4.0);
    EXPECT_DOUBLE_EQ(s.request(0.0, 4), 8.0); // queued behind the first
    EXPECT_DOUBLE_EQ(s.request(20.0, 4), 24.0); // idle gap resets
}

TEST(SectorServer, ZeroSectorRequestIsFree)
{
    SectorServer s(1.0, 50.0);
    EXPECT_DOUBLE_EQ(s.request(5.0, 0), 5.0);
    EXPECT_EQ(s.sectorsTransferred(), 0u);
}

TEST(SectorServer, TracksBusyTimeAndSectors)
{
    SectorServer s(2.0, 10.0);
    s.request(0.0, 8);
    EXPECT_DOUBLE_EQ(s.busyTime(), 4.0);
    EXPECT_EQ(s.sectorsTransferred(), 8u);
}

TEST(DramModel, InterleavesAcrossChannels)
{
    DramModel d(4, 4.0, 0.0); // 1 sector/cycle per channel
    // Requests to different channels proceed in parallel.
    const SimTime t0 = d.request(0.0, 0, 4);
    const SimTime t1 = d.request(0.0, 1, 4);
    EXPECT_DOUBLE_EQ(t0, 4.0);
    EXPECT_DOUBLE_EQ(t1, 4.0);
    // Same channel serializes.
    const SimTime t2 = d.request(0.0, 4, 4);
    EXPECT_DOUBLE_EQ(t2, 8.0);
}

// ---------------------------------------------------------------------
// Caches.
// ---------------------------------------------------------------------

TEST(LineCache, BasicHitMiss)
{
    LineCache c(4 * KiB, 4);
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(64)); // same 128B line
    EXPECT_FALSE(c.access(4 * KiB * 8)); // far away
}

TEST(SectoredCache, SectorGranularHits)
{
    SectoredCache c(64 * KiB, 8);
    // Fill only sector 0.
    auto r = c.access(0, 0x1, false, /*whole line=*/false);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.missingSectors, 1u);
    // Sector 0 hits, sector 1 misses.
    EXPECT_TRUE(c.access(0, 0x1, false, false).hit);
    r = c.access(0, 0x2, false, false);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.missingSectors, 1u);
}

TEST(SectoredCache, WholeLineFillValidatesAllSectors)
{
    SectoredCache c(64 * KiB, 8);
    c.access(0, 0x1, false, /*whole line=*/true);
    EXPECT_TRUE(c.access(0, 0xF, false, false).hit);
}

TEST(SectoredCache, DirtyEvictionReportsWriteback)
{
    // Tiny cache: 2 lines, direct-ish mapping forces eviction.
    SectoredCache c(2 * kEntryBytes, 1);
    c.access(0, 0xF, /*write=*/true, false);
    c.access(kEntryBytes, 0xF, true, false);
    // Third line evicts line 0 (same set for 2-set cache: line 2 -> set 0).
    const auto r = c.access(2 * kEntryBytes, 0xF, false, false);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackSectors, 4u);
    EXPECT_EQ(r.evictedLine, 0u);
}

// ---------------------------------------------------------------------
// End-to-end simulator invariants.
// ---------------------------------------------------------------------

SimResult
runMode(const char *bench, CompressionMode mode, double link_gbps = 150)
{
    const auto &spec = findBenchmark(bench);
    const WorkloadModel model(spec, 8 * MiB);
    SimConfig sc;
    sc.mode = mode;
    sc.linkGBps = link_gbps;
    sc.memOpsPerWarp = 150;
    std::vector<CompressionTarget> targets;
    if (mode == CompressionMode::Buddy) {
        RunnerConfig rc;
        rc.modelBytes = 8 * MiB;
        rc.profileSamples = 500;
        targets = runBenchmarkPerf(spec, rc).targets; // reuse profiling
    }
    return GpuSimulator(sc, model, targets).run();
}

TEST(GpuSim, DeterministicAcrossRuns)
{
    const auto a = runMode("356.sp", CompressionMode::Ideal);
    const auto b = runMode("356.sp", CompressionMode::Ideal);
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.deviceSectors, b.deviceSectors);
}

TEST(GpuSim, IdealModeHasNoLinkTraffic)
{
    const auto r = runMode("356.sp", CompressionMode::Ideal);
    EXPECT_EQ(r.linkSectors, 0u);
    EXPECT_GT(r.deviceSectors, 0u);
    EXPECT_GT(r.cycles, 0.0);
}

TEST(GpuSim, BandwidthCompressionReducesStreamingTraffic)
{
    const auto ideal = runMode("356.sp", CompressionMode::Ideal);
    const auto bw = runMode("356.sp", CompressionMode::BandwidthOnly);
    EXPECT_LT(bw.deviceSectors, ideal.deviceSectors);
    EXPECT_EQ(bw.linkSectors, 0u);
}

TEST(GpuSim, BuddyModeSpillsToLink)
{
    const auto r = runMode("AlexNet", CompressionMode::Buddy);
    EXPECT_GT(r.linkSectors, 0u);
    EXPECT_GT(r.buddyAccessFraction, 0.01);
    EXPECT_LT(r.buddyAccessFraction, 0.15);
    EXPECT_GT(r.metadataHitRate, 0.8);
}

TEST(GpuSim, HpcBuddyAccessesAreRare)
{
    const auto r = runMode("356.sp", CompressionMode::Buddy);
    EXPECT_LT(r.buddyAccessFraction, 0.02);
}

TEST(GpuSim, NativeHostTrafficUsesLinkInIdealMode)
{
    // FF_HPGMG performs host copies even without compression.
    const auto r = runMode("FF_HPGMG", CompressionMode::Ideal);
    EXPECT_GT(r.linkSectors, 0u);
}

TEST(GpuSim, LowerLinkBandwidthNeverHelpsHpgmg)
{
    const auto fast = runMode("FF_HPGMG", CompressionMode::Buddy, 150);
    const auto slow = runMode("FF_HPGMG", CompressionMode::Buddy, 50);
    EXPECT_GE(slow.cycles, fast.cycles);
}

TEST(GpuSim, BuddyNeedsTargetsPerAllocation)
{
    const auto &spec = findBenchmark("356.sp");
    const WorkloadModel model(spec, 4 * MiB);
    SimConfig sc;
    sc.mode = CompressionMode::Buddy;
    EXPECT_DEATH(GpuSimulator(sc, model, {}),
                 "one target per allocation");
}

TEST(Runner, ProducesAllSweepPoints)
{
    RunnerConfig cfg;
    cfg.modelBytes = 8 * MiB;
    cfg.profileSamples = 500;
    cfg.sim.memOpsPerWarp = 100;
    const auto perf = runBenchmarkPerf(findBenchmark("357.csp"), cfg);
    EXPECT_EQ(perf.buddy.size(), 4u);
    EXPECT_GT(perf.ideal.cycles, 0.0);
    for (const auto &[gbps, res] : perf.buddy) {
        EXPECT_GT(res.cycles, 0.0) << gbps;
        // Buddy is never dramatically faster than the ideal GPU.
        EXPECT_GT(res.cycles, 0.5 * perf.ideal.cycles);
    }
}

} // namespace
} // namespace buddy
