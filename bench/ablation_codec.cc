/**
 * @file
 * Ablation: the compression-algorithm choice (paper Section 2.4).
 *
 * Re-runs the final-design profiling pass (Figure 7 machinery) with
 * each codec in the library. BPC should dominate on the homogeneous
 * HPC/DL data, justifying the paper's selection.
 */

#include <cstdio>

#include "api/codec_registry.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/profiler.h"
#include "obs/report.h"
#include "workloads/analysis.h"
#include "workloads/benchmark.h"
#include "workloads/image.h"

using namespace buddy;

int
main(int argc, char **argv)
{
    CliFlags cli("bench_ablation_codec",
                 "ablation: compression ratio per benchmark and codec");
    addJsonFlag(cli);
    if (!cli.parse(argc, argv))
        return 0;

    std::printf("=== Ablation: codec choice under the final design "
                "===\n(final compression ratio per benchmark and "
                "codec)\n\n");

    // Every codec in the codec table competes.
    const auto &registry = api::CodecRegistry::instance();
    const auto codecs = registry.names();
    AnalysisConfig acfg;
    acfg.maxSamplesPerAllocation = 1200;
    const Profiler prof;

    std::vector<std::string> header = {"benchmark"};
    header.insert(header.end(), codecs.begin(), codecs.end());
    Table t(header);
    std::vector<GeoMean> gmean(codecs.size());

    for (const auto &spec : benchmarkRegistry()) {
        const WorkloadModel model(spec, 16 * MiB);
        std::vector<std::string> row = {spec.name};
        for (std::size_t c = 0; c < codecs.size(); ++c) {
            const auto codec = registry.create(codecs[c]);
            const auto d =
                prof.decide(mergedProfiles(model, *codec, acfg));
            row.push_back(strfmt("%.2f", d.compressionRatio));
            gmean[c].add(d.compressionRatio);
        }
        t.addRow(row);
    }
    std::vector<std::string> grow = {"GMEAN"};
    for (auto &g : gmean)
        grow.push_back(strfmt("%.2f", g.value()));
    t.addRow(grow);
    t.print();

    std::printf("\npaper: BPC selected for its compression ratios on "
                "homogeneous GPU data (Section 2.4)\n");

    if (!jsonPathOf(cli).empty()) {
        obs::BenchReport report("ablation_codec");
        for (std::size_t c = 0; c < codecs.size(); ++c)
            report.setValue("gmean_" + codecs[c], gmean[c].value());
        report.addTable("ratios", t);
        report.writeTo(jsonPathOf(cli));
        std::printf("wrote %s\n", jsonPathOf(cli).c_str());
    }
    return 0;
}
