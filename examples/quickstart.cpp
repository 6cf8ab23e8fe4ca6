/**
 * @file
 * Quickstart: the core Buddy Compression API in one page.
 *
 * Creates a controller (a model GPU with a buddy carve-out), makes a
 * compressed allocation with a 2x target, submits a batched access plan
 * (the buddy::api surface) writing data of varying compressibility
 * through the real BPC codec, reads it back, and prints the
 * traffic/ratio statistics the paper's figures are built from.
 *
 *   ./examples/quickstart
 */

#include <cstdio>
#include <cstring>

#include "common/rng.h"
#include "core/controller.h"

using namespace buddy;

int
main()
{
    // A model GPU: 64 MB of device memory, a 3x buddy carve-out (so
    // targets up to 4x are possible), BPC compression.
    BuddyConfig cfg;
    cfg.deviceBytes = 64 * MiB;
    cfg.carveOutRatio = 3;
    cfg.codec = "bpc";
    BuddyController gpu(cfg);

    // An annotated cudaMalloc: 32 MB of data squeezed into 16 MB of
    // device memory (2x target). The other 16 MB worth of sector slots
    // is pre-reserved in the buddy memory.
    const auto id = gpu.allocate("field", 32 * MiB,
                                 CompressionTarget::Ratio2);
    if (!id) {
        std::fprintf(stderr, "allocation failed\n");
        return 1;
    }
    const Allocation &alloc = gpu.allocations().at(*id);
    std::printf("allocated %s: %.0f MB logical, %.0f MB device, "
                "%.0f MB buddy slots\n",
                alloc.name.c_str(),
                static_cast<double>(alloc.bytes) / (1 << 20),
                static_cast<double>(alloc.deviceBytes()) / (1 << 20),
                static_cast<double>(alloc.buddyBytes()) / (1 << 20));

    // Plan three kinds of entry writes as one batched access plan — the
    // primary api surface; one codec scratch serves the whole batch.
    Rng rng(42);
    u8 compressible[kEntryBytes];
    u8 incompressible[kEntryBytes];
    u8 zeros[kEntryBytes] = {};
    u8 out[kEntryBytes];

    // (1) A smooth FP-like ramp: compresses well below 2x -> all four
    //     logical sectors fit in the two device-resident sectors.
    u32 v = 1000;
    for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
        v += static_cast<u32>(rng.below(8));
        std::memcpy(compressible + w * 4, &v, 4);
    }
    // (2) Random bytes: incompressible, spills to its buddy slot.
    for (auto &b : incompressible)
        b = static_cast<u8>(rng.below(256));
    // (3) Zeros: described entirely by metadata.

    AccessBatch batch;
    batch.write(alloc.va, compressible);
    batch.write(alloc.va + kEntryBytes, incompressible);
    batch.write(alloc.va + 2 * kEntryBytes, zeros);
    const BatchSummary &summary = gpu.execute(batch);

    const char *labels[] = {"compressible entry ", "incompressible one ",
                            "zero entry         "};
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const AccessInfo &info = batch.result(i);
        std::printf("%s: %u device sectors, %u buddy sectors\n",
                    labels[i], info.deviceSectors, info.buddySectors);
    }
    std::printf("batch summary      : %llu writes, %llu device sectors, "
                "%llu buddy sectors\n",
                static_cast<unsigned long long>(summary.writes),
                static_cast<unsigned long long>(summary.deviceSectors),
                static_cast<unsigned long long>(summary.buddySectors));

    // Reads decompress and verify bit-exactly; a single access is a
    // one-op batch.
    AccessBatch read;
    read.read(alloc.va + kEntryBytes, out);
    gpu.execute(read);
    std::printf("incompressible read back %s\n",
                std::memcmp(incompressible, out, kEntryBytes) == 0
                    ? "ok"
                    : "CORRUPT");

    const BatchSummary &stats = gpu.stats();
    std::printf("\nstats: %llu reads, %llu writes, buddy-access "
                "fraction %.1f%%, capacity ratio %.1fx\n",
                static_cast<unsigned long long>(stats.reads),
                static_cast<unsigned long long>(stats.writes),
                100.0 * stats.buddyAccessFraction(),
                gpu.compressionRatio());
    std::printf("metadata cache hit rate %.2f\n",
                gpu.metadataCache().hitRate().value());
    return 0;
}
