/**
 * @file
 * Unit and property tests for the memory-entry codecs (BPC, BDI, FPC,
 * zero). Every codec must round-trip bit-exactly on any input; the
 * pattern-specific tests additionally pin down expected compressed sizes
 * on data classes the paper's workloads are built from.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "api/codec_registry.h"
#include "common/bitstream.h"
#include "common/rng.h"
#include "compress/bdi.h"
#include "compress/bpc.h"
#include "compress/fpc.h"
#include "compress/zero.h"

namespace buddy {
namespace {

/** Helpers to build 128 B test entries. */
struct EntryBuf
{
    u8 data[kEntryBytes] = {};

    static EntryBuf
    zeros()
    {
        return EntryBuf{};
    }

    static EntryBuf
    fromWords(const std::vector<u32> &w)
    {
        EntryBuf e;
        for (std::size_t i = 0; i < kWordsPerEntry; ++i) {
            const u32 v = w[i % w.size()];
            std::memcpy(e.data + i * 4, &v, 4);
        }
        return e;
    }

    /** Arithmetic sequence of 32-bit words: base, base+step, ... */
    static EntryBuf
    ramp(u32 base, u32 step)
    {
        EntryBuf e;
        for (std::size_t i = 0; i < kWordsPerEntry; ++i) {
            const u32 v = base + static_cast<u32>(i) * step;
            std::memcpy(e.data + i * 4, &v, 4);
        }
        return e;
    }

    static EntryBuf
    random(Rng &rng)
    {
        EntryBuf e;
        for (auto &b : e.data)
            b = static_cast<u8>(rng.below(256));
        return e;
    }
};

/** Exact encoded length of @p data under @p c, in bits. */
std::size_t
encodedBits(const Compressor &c, const u8 *data)
{
    CompressionScratch scratch;
    return c.compressInto(data, scratch.encode, scratch);
}

/** Encoded length rounded up to whole bytes. */
std::size_t
encodedBytes(const Compressor &c, const u8 *data)
{
    return (encodedBits(c, data) + 7) / 8;
}

void
expectRoundTrip(const Compressor &c, const EntryBuf &e)
{
    CompressionScratch scratch;
    const std::size_t bits = c.compressInto(e.data, scratch.encode, scratch);
    u8 out[kEntryBytes];
    std::memset(out, 0xAA, sizeof(out));
    c.decompressFrom(scratch.encode, bits, out);
    ASSERT_EQ(std::memcmp(e.data, out, kEntryBytes), 0)
        << "codec " << c.name() << " round trip failed";
}

// ---------------------------------------------------------------------
// Parameterized round-trip properties across all codecs.
// ---------------------------------------------------------------------

class CodecTest : public ::testing::TestWithParam<const char *>
{
  protected:
    void SetUp() override
    {
        codec_ = api::CodecRegistry::instance().create(GetParam());
    }
    std::unique_ptr<Compressor> codec_;
};

TEST_P(CodecTest, FactoryProducesCodec)
{
    ASSERT_NE(codec_, nullptr);
    EXPECT_STREQ(codec_->name(), GetParam());
}

TEST_P(CodecTest, ZeroEntryRoundTrips)
{
    expectRoundTrip(*codec_, EntryBuf::zeros());
}

TEST_P(CodecTest, ZeroEntryCompressesBelowOneSector)
{
    const std::size_t bytes = encodedBytes(*codec_, EntryBuf::zeros().data);
    EXPECT_LE(bytes, kSectorBytes);
}

TEST_P(CodecTest, RampRoundTrips)
{
    expectRoundTrip(*codec_, EntryBuf::ramp(1000, 3));
    expectRoundTrip(*codec_, EntryBuf::ramp(0xFFFFFFF0u, 7));
    expectRoundTrip(*codec_, EntryBuf::ramp(0x80000000u, 0x10000));
}

TEST_P(CodecTest, RandomEntriesRoundTrip)
{
    Rng rng(7);
    for (int i = 0; i < 300; ++i)
        expectRoundTrip(*codec_, EntryBuf::random(rng));
}

TEST_P(CodecTest, RandomEntryNeverExpandsPastTaggedRaw)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        const auto e = EntryBuf::random(rng);
        const std::size_t bits = encodedBits(*codec_, e.data);
        // Worst case: raw payload plus a small format tag.
        EXPECT_LE(bits, kEntryBytes * 8 + 8);
    }
}

TEST_P(CodecTest, SparseEntriesRoundTrip)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EntryBuf e = EntryBuf::zeros();
        const int nbytes = 1 + static_cast<int>(rng.below(8));
        for (int k = 0; k < nbytes; ++k)
            e.data[rng.below(kEntryBytes)] = static_cast<u8>(rng.below(256));
        expectRoundTrip(*codec_, e);
    }
}

TEST_P(CodecTest, FloatLatticeRoundTrips)
{
    // FP32 fields with smooth spatial variation, the dominant HPC pattern.
    Rng rng(17);
    for (int i = 0; i < 50; ++i) {
        EntryBuf e;
        float base = static_cast<float>(rng.uniform(-100.0, 100.0));
        for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
            const float v =
                base + static_cast<float>(w) *
                           static_cast<float>(rng.uniform(0.0, 0.01));
            std::memcpy(e.data + w * 4, &v, 4);
        }
        expectRoundTrip(*codec_, e);
    }
}

TEST_P(CodecTest, AllOnesRoundTrips)
{
    EntryBuf e;
    std::memset(e.data, 0xFF, kEntryBytes);
    expectRoundTrip(*codec_, e);
}

TEST_P(CodecTest, AlternatingPatternRoundTrips)
{
    expectRoundTrip(*codec_,
                    EntryBuf::fromWords({0xAAAAAAAAu, 0x55555555u}));
    expectRoundTrip(*codec_, EntryBuf::fromWords({0x0u, 0xFFFFFFFFu}));
    expectRoundTrip(*codec_, EntryBuf::fromWords({0x1u, 0xFFFFFFFEu}));
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecTest,
                         ::testing::Values("bpc", "bdi", "fpc", "zero"));

// ---------------------------------------------------------------------
// BPC-specific behaviour.
// ---------------------------------------------------------------------

TEST(Bpc, ZeroEntryIsTiny)
{
    BpcCompressor bpc;
    const std::size_t bits = encodedBits(bpc, EntryBuf::zeros().data);
    // Tag (1) + zero base (2) + one 33-plane zero run (8).
    EXPECT_LE(bits, 16u);
}

TEST(Bpc, ConstantWordsCompressNearZeroEntry)
{
    BpcCompressor bpc;
    const auto e = EntryBuf::fromWords({0x12345678u});
    const std::size_t bits = encodedBits(bpc, e.data);
    // All deltas zero; only the base costs real bits.
    EXPECT_LE(bits, 64u);
}

TEST(Bpc, LinearRampCompressesExtremelyWell)
{
    BpcCompressor bpc;
    // Constant delta: one nonzero DBX event independent of ramp length.
    const std::size_t bytes = encodedBytes(bpc, EntryBuf::ramp(100, 4).data);
    EXPECT_LE(bytes, 16u);
}

TEST(Bpc, SmallMixedDeltasStayUnderHalfEntry)
{
    BpcCompressor bpc;
    Rng rng(23);
    for (int i = 0; i < 50; ++i) {
        EntryBuf e;
        u32 v = 1000000;
        for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
            v += static_cast<u32>(rng.below(256)) - 128;
            std::memcpy(e.data + w * 4, &v, 4);
        }
        const std::size_t bytes = encodedBytes(bpc, e.data);
        EXPECT_LE(bytes, kEntryBytes / 2)
            << "small-delta entry should compress to >=2x";
        expectRoundTrip(bpc, e);
    }
}

TEST(Bpc, RandomDataFallsBackToTaggedRaw)
{
    BpcCompressor bpc;
    Rng rng(29);
    int raw_count = 0;
    for (int i = 0; i < 50; ++i) {
        const auto e = EntryBuf::random(rng);
        const std::size_t bits = encodedBits(bpc, e.data);
        if (bits == kEntryBytes * 8 + 1)
            ++raw_count;
        EXPECT_LE(bits, kEntryBytes * 8 + 1);
    }
    // Virtually all random entries should hit the raw fallback.
    EXPECT_GE(raw_count, 45);
}

TEST(Bpc, SignBitPlanesCollapseForNegativeDeltas)
{
    BpcCompressor bpc;
    // Descending ramp: constant negative delta exercises the sign planes.
    EntryBuf e;
    for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
        const u32 v = 1000000 - static_cast<u32>(w) * 17;
        std::memcpy(e.data + w * 4, &v, 4);
    }
    const std::size_t bytes = encodedBytes(bpc, e.data);
    EXPECT_LE(bytes, 24u);
    expectRoundTrip(bpc, e);
}

TEST(Bpc, SingleBitDeltasCodeToTheirPlanes)
{
    // words[j] = j > i ? 1 << b : 0 has one nonzero delta, d[i] = 2^b,
    // so DBP plane b is a single one at lane i and every other DBP
    // plane is zero. The DBX planes are then: b, the 10-bit "single one
    // at i"; b-1 (when b > 0), the 5-bit DBP-zero shortcut; the rest
    // zero runs. A transpose that moves delta i to another lane or bit
    // b to another plane changes the stream.
    BpcCompressor bpc;
    const auto zero_run_bits = [](unsigned run) -> std::size_t {
        return run == 0 ? 0 : run == 1 ? 2 : 8; // runs here are <= 33
    };
    for (unsigned i = 0; i + 1 < kWordsPerEntry; ++i) {
        for (unsigned b = 0; b < 32; ++b) {
            EntryBuf e;
            for (std::size_t j = 0; j < kWordsPerEntry; ++j) {
                const u32 v = j > i ? 1u << b : 0u;
                std::memcpy(e.data + j * 4, &v, 4);
            }
            SCOPED_TRACE(testing::Message() << "delta " << i << " bit " << b);
            expectRoundTrip(bpc, e);

            // Tag, zero base, then planes 32..b+1 as one zero run.
            const std::size_t plane_b_at = 1 + 2 + zero_run_bits(32 - b);
            std::size_t want = plane_b_at + 10;
            if (b > 0)
                want += 5 + zero_run_bits(b - 1);
            CompressionScratch scratch;
            const std::size_t bits =
                bpc.compressInto(e.data, scratch.encode, scratch);
            ASSERT_EQ(bits, want);

            BitReader br(scratch.encode, bits);
            br.skip(plane_b_at);
            EXPECT_EQ(br.get(10), 0b11000u | i << 5) // "00011" + pos i
                << "plane " << b << " is not a single one at lane " << i;
        }
    }
}

// ---------------------------------------------------------------------
// BDI-specific behaviour.
// ---------------------------------------------------------------------

TEST(Bdi, RepeatedQwordUsesRepeatMode)
{
    BdiCompressor bdi;
    const auto e = EntryBuf::fromWords({0xCAFEBABEu, 0xCAFEBABEu});
    const std::size_t bytes = encodedBytes(bdi, e.data);
    EXPECT_LE(bytes, 10u); // 4-bit tag + 8 B value
    expectRoundTrip(bdi, e);
}

TEST(Bdi, SmallIntegersUseNarrowDeltas)
{
    BdiCompressor bdi;
    EntryBuf e;
    Rng rng(31);
    for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
        const u32 v = static_cast<u32>(rng.below(100));
        std::memcpy(e.data + w * 4, &v, 4);
    }
    const std::size_t bytes = encodedBytes(bdi, e.data);
    EXPECT_LT(bytes, kEntryBytes / 2);
    expectRoundTrip(bdi, e);
}

TEST(Bdi, PointerLikeDataCompresses)
{
    BdiCompressor bdi;
    // 8-byte pointers into the same region: base8-delta2 territory.
    EntryBuf e;
    Rng rng(37);
    for (std::size_t q = 0; q < kEntryBytes / 8; ++q) {
        const u64 v = 0x00007F8812340000ull + rng.below(0x8000);
        std::memcpy(e.data + q * 8, &v, 8);
    }
    const std::size_t bytes = encodedBytes(bdi, e.data);
    EXPECT_LT(bytes, kEntryBytes / 2);
    expectRoundTrip(bdi, e);
}

// ---------------------------------------------------------------------
// FPC-specific behaviour.
// ---------------------------------------------------------------------

TEST(Fpc, ZeroRunsAreCheap)
{
    FpcCompressor fpc;
    const std::size_t bits = encodedBits(fpc, EntryBuf::zeros().data);
    // 32 zero words = 4 runs of 8 words at 6 bits each.
    EXPECT_LE(bits, 25u);
}

TEST(Fpc, SmallValuesGetNarrowCodes)
{
    FpcCompressor fpc;
    const auto e = EntryBuf::fromWords({1, 2, 3, 4, 5, 6, 7, 0});
    const std::size_t bytes = encodedBytes(fpc, e.data);
    EXPECT_LT(bytes, kEntryBytes / 3);
    expectRoundTrip(fpc, e);
}

TEST(Fpc, RepeatedByteWordPattern)
{
    FpcCompressor fpc;
    const auto e = EntryBuf::fromWords({0x7E7E7E7Eu});
    const std::size_t bits = encodedBits(fpc, e.data);
    EXPECT_LE(bits, 32u * 11u + 1);
    expectRoundTrip(fpc, e);
}

TEST(Fpc, HalfwordPaddedPattern)
{
    FpcCompressor fpc;
    const auto e = EntryBuf::fromWords({0xABCD0000u});
    expectRoundTrip(fpc, e);
    const std::size_t bits = encodedBits(fpc, e.data);
    EXPECT_LE(bits, 32u * 19u + 1);
}

// ---------------------------------------------------------------------
// Cross-codec comparisons used to justify BPC selection (Section 2.4).
// ---------------------------------------------------------------------

TEST(CodecComparison, BpcBeatsBdiAndFpcOnSmoothFp32)
{
    BpcCompressor bpc;
    BdiCompressor bdi;
    FpcCompressor fpc;
    Rng rng(41);

    double bpc_bits = 0, bdi_bits = 0, fpc_bits = 0;
    for (int i = 0; i < 200; ++i) {
        EntryBuf e;
        float v = static_cast<float>(rng.uniform(1.0, 2.0));
        for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
            v += static_cast<float>(rng.uniform(-1e-4, 1e-4));
            std::memcpy(e.data + w * 4, &v, 4);
        }
        bpc_bits += static_cast<double>(encodedBits(bpc, e.data));
        bdi_bits += static_cast<double>(encodedBits(bdi, e.data));
        fpc_bits += static_cast<double>(encodedBits(fpc, e.data));
    }
    // Homogeneous FP data is BPC's home turf (paper Section 3.1).
    EXPECT_LT(bpc_bits, bdi_bits);
    EXPECT_LT(bpc_bits, fpc_bits);
}

} // namespace
} // namespace buddy
