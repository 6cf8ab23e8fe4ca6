/**
 * @file
 * google-benchmark micro benchmarks of the compression substrate: codec
 * encode and decode throughput per data class (one entry in a loop) and
 * over a mixed 1024-entry working set (`bpc_mixed`), controller
 * submission (one-op batches vs. one large batch), and the metadata
 * cache — the ablation backing the Section 2.4 algorithm choice and the
 * buddy::api batching design.
 *
 * Before the google-benchmark suite runs, main() prints a headline
 * comparison: entries/s through a frozen copy of the original per-entry
 * BPC encoder (one heap-allocated result per entry) vs. compressInto()
 * with one scratch reused across the working set.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <vector>

#include "api/codec_registry.h"
#include "common/bitstream.h"
#include "common/rng.h"
#include "compress/bpc.h"
#include "compress/sector.h"
#include "core/controller.h"
#include "core/metadata.h"
#include "workloads/patterns.h"

using namespace buddy;

namespace {

void
fillClass(Rng &rng, int data_class, u8 *buf)
{
    switch (data_class) {
      case 0:
        std::memset(buf, 0, kEntryBytes);
        break;
      case 1:
        fillBucketEntry(rng, 3, buf); // smooth mid-compressible
        break;
      default:
        fillBucketEntry(rng, 5, buf); // incompressible
        break;
    }
}

/** Data class of the working set that cycles through every bucket. */
constexpr int kMixedClass = 3;
constexpr std::size_t kMixedEntries = 1024;

/**
 * The entries a codec bench walks, back to back: one entry of
 * @p data_class, or for kMixedClass kMixedEntries entries that cycle
 * through all six fillBucketEntry buckets, so the branch predictor
 * cannot learn one entry's path.
 */
std::vector<u8>
benchEntries(int data_class)
{
    Rng rng(1234);
    const std::size_t n = data_class == kMixedClass ? kMixedEntries : 1;
    std::vector<u8> entries(n * kEntryBytes);
    for (std::size_t i = 0; i < n; ++i) {
        u8 *e = entries.data() + i * kEntryBytes;
        if (data_class == kMixedClass)
            fillBucketEntry(rng, static_cast<unsigned>(i % kPatternBuckets),
                            e);
        else
            fillClass(rng, data_class, e);
    }
    return entries;
}

void
BM_CompressInto(benchmark::State &state, const char *codec_name,
                int data_class)
{
    const auto codec = api::CodecRegistry::instance().create(codec_name);
    const auto entries = benchEntries(data_class);
    const std::size_t n = entries.size() / kEntryBytes;
    CompressionScratch scratch;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec->compressInto(
            entries.data() + i * kEntryBytes, scratch.encode, scratch));
        i = i + 1 == n ? 0 : i + 1;
    }
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations() * kEntryBytes));
}

void
BM_DecompressFrom(benchmark::State &state, const char *codec_name,
                  int data_class)
{
    const auto codec = api::CodecRegistry::instance().create(codec_name);
    const auto entries = benchEntries(data_class);
    const std::size_t n = entries.size() / kEntryBytes;
    std::vector<u8> payloads(n * kMaxEncodedBytes);
    std::vector<std::size_t> bits(n);
    CompressionScratch scratch;
    for (std::size_t k = 0; k < n; ++k) {
        bits[k] = codec->compressInto(entries.data() + k * kEntryBytes,
                                      scratch.encode, scratch);
        std::memcpy(payloads.data() + k * kMaxEncodedBytes, scratch.encode,
                    kMaxEncodedBytes);
    }
    u8 out[kEntryBytes];
    std::size_t i = 0;
    for (auto _ : state) {
        codec->decompressFrom(payloads.data() + i * kMaxEncodedBytes,
                              bits[i], out);
        benchmark::DoNotOptimize(out[0]);
        i = i + 1 == n ? 0 : i + 1;
    }
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations() * kEntryBytes));
}

void
BM_RoundTrip(benchmark::State &state, const char *codec_name)
{
    const auto codec = api::CodecRegistry::instance().create(codec_name);
    Rng rng(99);
    u8 buf[kEntryBytes], out[kEntryBytes];
    fillBucketEntry(rng, 3, buf);
    CompressionScratch scratch;
    for (auto _ : state) {
        const std::size_t bits =
            codec->compressInto(buf, scratch.encode, scratch);
        codec->decompressFrom(scratch.encode, bits, out);
        benchmark::DoNotOptimize(out[0]);
    }
    state.SetBytesProcessed(
        static_cast<i64>(state.iterations() * kEntryBytes));
}

/** Mixed-compressibility working set shared by the controller benches. */
std::vector<std::vector<u8>>
mixedEntries(std::size_t count)
{
    Rng rng(7);
    std::vector<std::vector<u8>> entries(count);
    for (std::size_t i = 0; i < count; ++i) {
        entries[i].resize(kEntryBytes);
        fillClass(rng, static_cast<int>(i % 3), entries[i].data());
    }
    return entries;
}

BuddyConfig
benchConfig()
{
    BuddyConfig cfg;
    cfg.deviceBytes = 16 * MiB;
    return cfg;
}

void
BM_ControllerWritePerEntry(benchmark::State &state)
{
    BuddyController gpu(benchConfig());
    const auto id = gpu.allocate("w", 4 * MiB, CompressionTarget::Ratio2);
    const Addr va = *id;
    const auto entries = mixedEntries(1024);
    AccessBatch one(1);
    for (auto _ : state) {
        for (std::size_t i = 0; i < entries.size(); ++i) {
            one.clear();
            one.write(va + i * kEntryBytes, entries[i].data());
            gpu.execute(one);
        }
    }
    state.SetItemsProcessed(
        static_cast<i64>(state.iterations() * entries.size()));
}

void
BM_ControllerWriteBatch(benchmark::State &state)
{
    BuddyController gpu(benchConfig());
    const auto id = gpu.allocate("w", 4 * MiB, CompressionTarget::Ratio2);
    const Addr va = *id;
    const auto entries = mixedEntries(1024);
    AccessBatch batch(entries.size());
    for (auto _ : state) {
        batch.clear();
        for (std::size_t i = 0; i < entries.size(); ++i)
            batch.write(va + i * kEntryBytes, entries[i].data());
        gpu.execute(batch);
    }
    state.SetItemsProcessed(
        static_cast<i64>(state.iterations() * entries.size()));
}

/** Metadata lookups walking the entries by a random step of 1 to
 *  @p max_step: at 1, a stride-1 sweep, whose lookups all but once per
 *  64-entry line repeat the last access's line. */
void
BM_MetadataCache(benchmark::State &state, u64 max_step)
{
    MetadataCache cache(MetadataCacheConfig{});
    Rng rng(5);
    u64 e = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(e));
        e += 1 + rng.below(max_step);
    }
}

// --------------------------------------------------------------------
// Frozen copy of the seed's per-entry BPC encoder (pre-batching
// implementation): dynamic BitWriter, eager full-plane transpose,
// per-bit emission, one heap-allocated Encoded result per entry.
// Kept verbatim as the baseline the batched access plan is measured
// against; not part of the library.
// --------------------------------------------------------------------
namespace seed_reference {

constexpr u64 kPlaneMask = (1ull << BpcCompressor::kPlaneBits) - 1;
constexpr u64 kDeltaMask = (1ull << BpcCompressor::kPlanes) - 1;
constexpr std::size_t kRawBits = kEntryBytes * 8;

/** One encoded entry, payload on the heap. */
struct Encoded
{
    std::size_t sizeBits = 0;
    std::vector<u8> payload;
};

void
emitZeroPlanes(BitWriter &bw, unsigned run)
{
    while (run > 0) {
        if (run == 1) {
            bw.putBit(0); bw.putBit(1);
            run = 0;
        } else {
            const unsigned chunk = run > 33 ? 33 : run;
            bw.putBit(0); bw.putBit(0); bw.putBit(1);
            bw.put(chunk - 2, 5);
            run -= chunk;
        }
    }
}

void
computePlanes(const u32 *words, u64 *dbp)
{
    u64 deltas[BpcCompressor::kPlaneBits];
    for (unsigned i = 0; i < BpcCompressor::kPlaneBits; ++i) {
        const i64 d = static_cast<i64>(words[i + 1]) -
                      static_cast<i64>(words[i]);
        deltas[i] = static_cast<u64>(d) & kDeltaMask;
    }
    for (unsigned b = 0; b < BpcCompressor::kPlanes; ++b) {
        u64 plane = 0;
        for (unsigned i = 0; i < BpcCompressor::kPlaneBits; ++i)
            plane |= ((deltas[i] >> b) & 1ull) << i;
        dbp[b] = plane;
    }
}

void
encodeBase(BitWriter &bw, u32 base)
{
    const i32 sbase = static_cast<i32>(base);
    if (base == 0) {
        bw.putBit(0); bw.putBit(0);
    } else if (sbase >= -8 && sbase < 8) {
        bw.putBit(0); bw.putBit(1);
        bw.put(static_cast<u32>(sbase) & 0xF, 4);
    } else if (sbase >= -32768 && sbase < 32768) {
        bw.putBit(1); bw.putBit(0);
        bw.put(static_cast<u32>(sbase) & 0xFFFF, 16);
    } else {
        bw.putBit(1); bw.putBit(1);
        bw.put(base, 32);
    }
}

bool
isSingleOne(u64 plane, unsigned &pos)
{
    if (plane == 0 || (plane & (plane - 1)) != 0)
        return false;
    pos = 0;
    while (!((plane >> pos) & 1ull))
        ++pos;
    return true;
}

bool
isTwoConsecutiveOnes(u64 plane, unsigned &pos)
{
    if (plane == 0)
        return false;
    pos = 0;
    while (!((plane >> pos) & 1ull))
        ++pos;
    return plane == (0b11ull << pos) &&
           pos + 1 < BpcCompressor::kPlaneBits;
}

Encoded
compress(const u8 *data)
{
    u32 words[kWordsPerEntry];
    loadWords(data, words);

    u64 dbp[BpcCompressor::kPlanes];
    computePlanes(words, dbp);

    u64 dbx[BpcCompressor::kPlanes];
    dbx[BpcCompressor::kPlanes - 1] = dbp[BpcCompressor::kPlanes - 1];
    for (unsigned b = 0; b + 1 < BpcCompressor::kPlanes; ++b)
        dbx[b] = dbp[b] ^ dbp[b + 1];

    BitWriter bw;
    bw.putBit(0);
    encodeBase(bw, words[0]);

    unsigned zero_run = 0;
    for (int b = BpcCompressor::kPlanes - 1; b >= 0; --b) {
        const u64 x = dbx[b];
        if (x == 0) {
            ++zero_run;
            continue;
        }
        emitZeroPlanes(bw, zero_run);
        zero_run = 0;

        unsigned pos = 0;
        if (x == kPlaneMask) {
            bw.put(0b00000, 5);
        } else if (dbp[b] == 0) {
            bw.putBit(0); bw.putBit(0); bw.putBit(0); bw.putBit(0);
            bw.putBit(1);
        } else if (isTwoConsecutiveOnes(x, pos)) {
            bw.putBit(0); bw.putBit(0); bw.putBit(0); bw.putBit(1);
            bw.putBit(0);
            bw.put(pos, 5);
        } else if (isSingleOne(x, pos)) {
            bw.putBit(0); bw.putBit(0); bw.putBit(0); bw.putBit(1);
            bw.putBit(1);
            bw.put(pos, 5);
        } else {
            bw.putBit(1);
            bw.put(x, BpcCompressor::kPlaneBits);
        }
    }
    emitZeroPlanes(bw, zero_run);

    if (bw.sizeBits() >= kRawBits + 1) {
        BitWriter raw;
        raw.putBit(1);
        for (std::size_t i = 0; i < kEntryBytes; ++i)
            raw.put(data[i], 8);
        Encoded r;
        r.sizeBits = raw.sizeBits();
        r.payload = raw.bytes();
        return r;
    }

    Encoded r;
    r.sizeBits = bw.sizeBits();
    r.payload = bw.bytes();
    return r;
}

} // namespace seed_reference

/**
 * Headline number for the batching redesign: entries/s through the
 * seed's per-entry API (frozen reference above) and the batched
 * allocation-free path — same codec, same mixed working set.
 */
void
reportBatchSpeedup()
{
    const auto codec = api::CodecRegistry::instance().create("bpc");
    const auto entries = mixedEntries(4096);

    const auto time_of = [&](auto &&body) {
        // Warm-up pass, then best of three timed passes.
        body();
        double best = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            body();
            const auto t1 = std::chrono::steady_clock::now();
            best = std::min(
                best,
                std::chrono::duration<double>(t1 - t0).count());
        }
        return best;
    };

    std::size_t sink = 0;
    const double seed = time_of([&] {
        // The seed's per-entry hot path, frozen above: eager transpose,
        // per-bit emission, one heap allocation per entry.
        for (const auto &e : entries)
            sink += seed_reference::compress(e.data()).sizeBits;
    });
    const double batched = time_of([&] {
        // The batch path: one scratch for the whole span, zero per-entry
        // allocations.
        CompressionScratch scratch;
        for (const auto &e : entries)
            sink += codec->compressInto(e.data(), scratch.encode, scratch);
    });
    benchmark::DoNotOptimize(sink);

    const double n = static_cast<double>(entries.size());
    std::printf("--- batched access-plan speedup (bpc, %zu mixed "
                "entries) ---\n",
                entries.size());
    std::printf("seed per-entry API (pre-batching) : %10.0f entries/s\n",
                n / seed);
    std::printf("batched compressInto()            : %10.0f entries/s\n",
                n / batched);
    std::printf("speedup vs seed per-entry API     : %10.2fx\n\n",
                seed / batched);
}

} // namespace

BENCHMARK_CAPTURE(BM_CompressInto, bpc_zero, "bpc", 0);
BENCHMARK_CAPTURE(BM_CompressInto, bpc_smooth, "bpc", 1);
BENCHMARK_CAPTURE(BM_CompressInto, bpc_random, "bpc", 2);
BENCHMARK_CAPTURE(BM_CompressInto, bpc_mixed, "bpc", kMixedClass);
BENCHMARK_CAPTURE(BM_CompressInto, bdi_zero, "bdi", 0);
BENCHMARK_CAPTURE(BM_CompressInto, bdi_smooth, "bdi", 1);
BENCHMARK_CAPTURE(BM_CompressInto, bdi_random, "bdi", 2);
BENCHMARK_CAPTURE(BM_CompressInto, fpc_smooth, "fpc", 1);
BENCHMARK_CAPTURE(BM_CompressInto, zero_zero, "zero", 0);
BENCHMARK_CAPTURE(BM_DecompressFrom, bpc_zero, "bpc", 0);
BENCHMARK_CAPTURE(BM_DecompressFrom, bpc_smooth, "bpc", 1);
BENCHMARK_CAPTURE(BM_DecompressFrom, bpc_random, "bpc", 2);
BENCHMARK_CAPTURE(BM_DecompressFrom, bpc_mixed, "bpc", kMixedClass);
BENCHMARK_CAPTURE(BM_DecompressFrom, bdi_zero, "bdi", 0);
BENCHMARK_CAPTURE(BM_DecompressFrom, bdi_smooth, "bdi", 1);
BENCHMARK_CAPTURE(BM_DecompressFrom, bdi_random, "bdi", 2);
BENCHMARK_CAPTURE(BM_DecompressFrom, fpc_zero, "fpc", 0);
BENCHMARK_CAPTURE(BM_DecompressFrom, fpc_smooth, "fpc", 1);
BENCHMARK_CAPTURE(BM_DecompressFrom, fpc_random, "fpc", 2);
BENCHMARK_CAPTURE(BM_RoundTrip, bpc, "bpc");
BENCHMARK_CAPTURE(BM_RoundTrip, bdi, "bdi");
BENCHMARK_CAPTURE(BM_RoundTrip, fpc, "fpc");
BENCHMARK(BM_ControllerWritePerEntry);
BENCHMARK(BM_ControllerWriteBatch);
BENCHMARK_CAPTURE(BM_MetadataCache, random_step, 4);
BENCHMARK_CAPTURE(BM_MetadataCache, sweep, 1);

int
main(int argc, char **argv)
{
    reportBatchSpeedup();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
