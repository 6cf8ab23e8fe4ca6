/**
 * @file
 * Cross-module integration tests: the full pipeline of the paper —
 * synthesize a workload, profile it, create compressed allocations with
 * the chosen targets, write the actual image bytes through the
 * functional controller, and check that (i) everything reads back
 * bit-exactly and (ii) the measured buddy-access fraction agrees with
 * the profiler's static estimate.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "api/codec_registry.h"
#include "core/controller.h"
#include "core/profiler.h"
#include "workloads/analysis.h"
#include "workloads/benchmark.h"
#include "workloads/image.h"

namespace buddy {
namespace {

struct PipelineResult
{
    double measuredBuddyFraction;
    double predictedBuddyFraction;
    double compressionRatio;
};

/** Run profile -> allocate -> write -> read for one benchmark. */
PipelineResult
runPipeline(const std::string &bench, u64 model_bytes)
{
    const auto &spec = findBenchmark(bench);
    const WorkloadModel model(spec, model_bytes);

    // Profile and decide targets.
    const auto bpc = api::CodecRegistry::instance().create("bpc");
    AnalysisConfig acfg;
    acfg.maxSamplesPerAllocation = 1024;
    const auto profiles = mergedProfiles(model, *bpc, acfg);
    const auto decision = Profiler().decide(profiles);

    // A controller sized for the compressed footprint.
    BuddyConfig cfg;
    cfg.deviceBytes = model_bytes; // generous
    BuddyController gpu(cfg);

    // Allocate per the decision and write snapshot 5's data.
    const unsigned snapshot = 5;
    std::vector<Addr> ids;
    for (std::size_t a = 0; a < model.allocations().size(); ++a) {
        const auto id =
            gpu.allocate(profiles[a].name(),
                         model.allocations()[a].entries * kEntryBytes,
                         decision.targets[a]);
        EXPECT_TRUE(id.has_value());
        ids.push_back(*id);
    }

    // Write each allocation's sampled image as one batched access plan
    // (the api surface the functional experiments now drive).
    u64 buddy_writes = 0, writes = 0;
    for (std::size_t a = 0; a < ids.size(); ++a) {
        const Allocation &alloc = gpu.allocations().at(ids[a]);
        const u64 stride = 3; // sample 1/3 of the image for speed
        const u64 entries = model.allocations()[a].entries;
        std::vector<u8> data((entries / stride + 1) * kEntryBytes);
        AccessBatch batch;
        std::size_t n = 0;
        for (u64 e = 0; e < entries; e += stride, ++n) {
            u8 *buf = data.data() + n * kEntryBytes;
            model.entryData(a, e, snapshot, buf);
            batch.write(alloc.va + e * kEntryBytes, buf);
        }
        const BatchSummary &s = gpu.execute(batch);
        buddy_writes += s.buddyAccesses;
        writes += s.writes;
    }

    // Read a sample back, one batch per allocation, and verify.
    u8 buf[kEntryBytes];
    for (std::size_t a = 0; a < ids.size(); ++a) {
        const Allocation &alloc = gpu.allocations().at(ids[a]);
        const u64 entries = model.allocations()[a].entries;
        std::vector<u8> out((entries / 30 + 1) * kEntryBytes);
        AccessBatch batch;
        for (u64 e = 0; e < entries; e += 30)
            batch.read(alloc.va + e * kEntryBytes,
                       out.data() + (e / 30) * kEntryBytes);
        gpu.execute(batch);
        for (u64 e = 0; e < entries; e += 30) {
            model.entryData(a, e, snapshot, buf);
            EXPECT_EQ(std::memcmp(buf, out.data() + (e / 30) * kEntryBytes,
                                  kEntryBytes),
                      0)
                << bench << " alloc " << a << " entry " << e;
        }
    }

    PipelineResult r;
    r.measuredBuddyFraction =
        static_cast<double>(buddy_writes) / static_cast<double>(writes);
    r.predictedBuddyFraction = decision.buddyAccessFraction;
    r.compressionRatio = gpu.compressionRatio();
    return r;
}

class PipelineTest : public ::testing::TestWithParam<const char *>
{};

TEST_P(PipelineTest, FunctionalWritesMatchProfilerPrediction)
{
    const auto r = runPipeline(GetParam(), 4 * MiB);
    // The profiler's static estimate and the functional measurement
    // must agree within a couple of percentage points.
    EXPECT_NEAR(r.measuredBuddyFraction, r.predictedBuddyFraction, 0.03)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, PipelineTest,
                         ::testing::Values("356.sp", "354.cg",
                                           "FF_HPGMG", "AlexNet",
                                           "VGG16", "ResNet50"));

TEST(Pipeline, CompressionRatioMatchesDecision)
{
    const auto r = runPipeline("352.ep", 4 * MiB);
    // ep gets the 16x zero-pool treatment: overall ratio well above 2x.
    EXPECT_GT(r.compressionRatio, 2.0);
}

TEST(Pipeline, SnapshotEvolutionKeepsFunctionalCorrectness)
{
    // Write snapshot 0, overwrite with snapshot 9 (seismic's zeros fill
    // in), verify the final state: the no-data-movement property under
    // a full compressibility shift.
    const auto &spec = findBenchmark("355.seismic");
    const WorkloadModel model(spec, 2 * MiB);

    BuddyConfig cfg;
    cfg.deviceBytes = 2 * MiB;
    BuddyController gpu(cfg);
    const auto id = gpu.allocate(
        "wavefield", model.allocations()[0].entries * kEntryBytes,
        CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Allocation &alloc = gpu.allocations().at(*id);

    // Every other entry; slot k holds entry 2k.
    const u64 slots = (model.allocations()[0].entries + 1) / 2;
    std::vector<u8> data(slots * kEntryBytes), out(slots * kEntryBytes);
    AccessBatch batch(slots);
    for (unsigned s : {0u, 9u}) {
        batch.clear();
        for (u64 k = 0; k < slots; ++k) {
            u8 *buf = data.data() + k * kEntryBytes;
            model.entryData(0, 2 * k, s, buf);
            batch.write(alloc.va + 2 * k * kEntryBytes, buf);
        }
        gpu.execute(batch);
    }
    batch.clear();
    for (u64 k = 0; k < slots; ++k)
        batch.read(alloc.va + 2 * k * kEntryBytes,
                   out.data() + k * kEntryBytes);
    gpu.execute(batch);
    ASSERT_EQ(std::memcmp(data.data(), out.data(), data.size()), 0);
    // Zeros became data: the overflow population grew, but only inside
    // this allocation's own slots.
    EXPECT_GE(gpu.overflowEntries(), 0u);
}

TEST(Pipeline, AlternativeCodecStillRoundTrips)
{
    // The controller is codec-agnostic: swap BDI in and the functional
    // path still verifies (capacity results differ — see the ablation
    // bench).
    const auto &spec = findBenchmark("357.csp");
    const WorkloadModel model(spec, 1 * MiB);

    BuddyConfig cfg;
    cfg.deviceBytes = 1 * MiB;
    cfg.codec = "bdi";
    BuddyController gpu(cfg);
    const auto id = gpu.allocate(
        "u", model.allocations()[0].entries * kEntryBytes,
        CompressionTarget::Ratio2);
    ASSERT_TRUE(id);
    const Allocation &alloc = gpu.allocations().at(*id);

    // Every fourth entry, each written then read back in one batch.
    const u64 slots = (model.allocations()[0].entries + 3) / 4;
    std::vector<u8> data(slots * kEntryBytes), out(slots * kEntryBytes);
    AccessBatch batch(2 * slots);
    for (u64 k = 0; k < slots; ++k) {
        u8 *buf = data.data() + k * kEntryBytes;
        model.entryData(0, 4 * k, 3, buf);
        batch.write(alloc.va + 4 * k * kEntryBytes, buf);
        batch.read(alloc.va + 4 * k * kEntryBytes,
                   out.data() + k * kEntryBytes);
    }
    gpu.execute(batch);
    ASSERT_EQ(std::memcmp(data.data(), out.data(), data.size()), 0);
}

} // namespace
} // namespace buddy
