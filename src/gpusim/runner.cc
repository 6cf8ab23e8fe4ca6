#include "gpusim/runner.h"

#include "api/codec_registry.h"
#include "workloads/analysis.h"

namespace buddy {

namespace {

/** Profile the workload and return per-allocation targets. */
std::vector<CompressionTarget>
profileTargets(const WorkloadModel &model, const RunnerConfig &cfg)
{
    const auto codec = api::CodecRegistry::instance().create(cfg.codec);
    AnalysisConfig acfg;
    acfg.maxSamplesPerAllocation = cfg.profileSamples;
    const auto profiles = mergedProfiles(model, *codec, acfg);
    return Profiler(cfg.profiler).decide(profiles).targets;
}

} // namespace

BenchmarkPerf
runBenchmarkPerf(const BenchmarkSpec &spec, const RunnerConfig &cfg)
{
    BenchmarkPerf out;
    out.name = spec.name;

    const WorkloadModel model(spec, cfg.modelBytes);
    out.targets = profileTargets(model, cfg);

    // Ideal large-memory baseline at the reference link bandwidth.
    {
        SimConfig sc = cfg.sim;
        sc.mode = CompressionMode::Ideal;
        out.ideal = GpuSimulator(sc, model).run();
    }

    // Bandwidth-only compression.
    {
        SimConfig sc = cfg.sim;
        sc.mode = CompressionMode::BandwidthOnly;
        out.bandwidthOnly = GpuSimulator(sc, model).run();
    }

    // Buddy Compression across the link sweep.
    for (const double gbps : cfg.linkSweep) {
        SimConfig sc = cfg.sim;
        sc.mode = CompressionMode::Buddy;
        sc.linkGBps = gbps;
        out.buddy[gbps] = GpuSimulator(sc, model, out.targets).run();
    }
    return out;
}

double
metadataHitRateFor(const BenchmarkSpec &spec, const RunnerConfig &cfg,
                   std::size_t metadata_cache_bytes)
{
    const WorkloadModel model(spec, cfg.modelBytes);
    const auto targets = profileTargets(model, cfg);

    SimConfig sc = cfg.sim;
    sc.mode = CompressionMode::Buddy;
    // The Figure 5b sweep is expressed in total (unscaled) capacity;
    // SimConfig::scaledMetadataCache() scales it like every other run.
    sc.metadataCache.totalBytes = metadata_cache_bytes;
    const SimResult r = GpuSimulator(sc, model, targets).run();
    return r.metadataHitRate;
}

} // namespace buddy
