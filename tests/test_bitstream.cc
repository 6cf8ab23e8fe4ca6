/**
 * @file
 * Unit tests for the LSB-first bit packer/unpacker that underlies every
 * compression codec.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/bitstream.h"
#include "common/rng.h"

namespace buddy {
namespace {

TEST(BitStream, EmptyWriterHasNoBits)
{
    BitWriter bw;
    EXPECT_EQ(bw.sizeBits(), 0u);
    EXPECT_EQ(bw.sizeBytes(), 0u);
}

TEST(BitStream, SingleBitRoundTrip)
{
    BitWriter bw;
    bw.putBit(true);
    bw.putBit(false);
    bw.putBit(true);
    ASSERT_EQ(bw.sizeBits(), 3u);

    BitReader br(bw);
    EXPECT_TRUE(br.getBit());
    EXPECT_FALSE(br.getBit());
    EXPECT_TRUE(br.getBit());
    EXPECT_EQ(br.remaining(), 0u);
}

TEST(BitStream, MultiBitValuesRoundTrip)
{
    BitWriter bw;
    bw.put(0xDEADBEEFull, 32);
    bw.put(0x5, 3);
    bw.put(0xFFFFFFFFFFFFFFFFull, 64);
    bw.put(0, 0); // zero-width write is a no-op

    BitReader br(bw);
    EXPECT_EQ(br.get(32), 0xDEADBEEFull);
    EXPECT_EQ(br.get(3), 0x5ull);
    EXPECT_EQ(br.get(64), 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(br.remaining(), 0u);
}

TEST(BitStream, SizeBytesRoundsUp)
{
    BitWriter bw;
    bw.put(0x7F, 7);
    EXPECT_EQ(bw.sizeBytes(), 1u);
    bw.putBit(1);
    EXPECT_EQ(bw.sizeBytes(), 1u);
    bw.putBit(0);
    EXPECT_EQ(bw.sizeBytes(), 2u);
}

TEST(BitStream, UnalignedInterleavedFields)
{
    BitWriter bw;
    for (unsigned n = 1; n <= 17; ++n)
        bw.put(n, n); // value n in an n-bit field

    BitReader br(bw);
    for (unsigned n = 1; n <= 17; ++n)
        EXPECT_EQ(br.get(n), n) << "field width " << n;
}

/** A random field width in [1, 64]. */
unsigned
randomWidth(Rng &rng)
{
    return 1 + static_cast<unsigned>(rng.below(64));
}

/** A random value that fits in @p width bits. */
u64
randomValue(Rng &rng, unsigned width)
{
    const u64 mask = width == 64 ? ~0ull : ((1ull << width) - 1);
    return rng.next() & mask;
}

TEST(BitStream, RandomizedRoundTrip)
{
    Rng rng(42);
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<std::pair<u64, unsigned>> fields;
        BitWriter bw;
        const int nfields = 1 + static_cast<int>(rng.below(40));
        for (int i = 0; i < nfields; ++i) {
            const unsigned width = randomWidth(rng);
            const u64 v = randomValue(rng, width);
            fields.emplace_back(v, width);
            bw.put(v, width);
        }
        BitReader br(bw);
        for (const auto &[v, width] : fields)
            ASSERT_EQ(br.get(width), v);
        ASSERT_EQ(br.remaining(), 0u);
    }
}

TEST(BitStream, FixedWriterOverDirtyBufferMatchesBitWriter)
{
    // The fixed writer clears bytes lazily: over a buffer pre-filled
    // with 0xFF it must still produce exactly BitWriter's bytes.
    Rng rng(7);
    constexpr std::size_t kCap = 512;
    u8 buf[kCap];
    for (int iter = 0; iter < 300; ++iter) {
        std::memset(buf, 0xFF, sizeof(buf));
        BitWriter ref;
        FixedBitWriter fw(buf, kCap);
        const int nfields = 1 + static_cast<int>(rng.below(60));
        for (int i = 0; i < nfields; ++i) {
            const unsigned width = randomWidth(rng);
            const u64 v = randomValue(rng, width);
            // Unmasked high bits must not leak into the stream.
            const u64 dirty = width == 64 ? v : v | (rng.next() << width);
            ref.put(v, width);
            fw.put(dirty, width);
            if (rng.below(4) == 0) {
                const bool bit = rng.below(2) != 0;
                ref.putBit(bit);
                fw.putBit(bit);
            }
        }
        ASSERT_EQ(fw.sizeBits(), ref.sizeBits());
        ASSERT_EQ(fw.sizeBytes(), ref.sizeBytes());
        ASSERT_EQ(std::memcmp(fw.data(), ref.bytes().data(),
                              ref.sizeBytes()),
                  0)
            << "iteration " << iter;
    }
}

TEST(BitStream, ReaderOverExactlySizedBufferReadsEveryField)
{
    // The payload lives in a heap block of exactly (bits + 7) / 8 bytes,
    // so a reader that loads past the last byte is caught by ASan.
    Rng rng(11);
    for (int iter = 0; iter < 300; ++iter) {
        std::vector<std::pair<u64, unsigned>> fields;
        BitWriter bw;
        const int nfields = 1 + static_cast<int>(rng.below(24));
        for (int i = 0; i < nfields; ++i) {
            // Often end on a 57..64-bit field that reaches the last byte.
            const unsigned width =
                i == nfields - 1 && rng.below(2) == 0
                    ? 57 + static_cast<unsigned>(rng.below(8))
                    : randomWidth(rng);
            const u64 v = randomValue(rng, width);
            fields.emplace_back(v, width);
            bw.put(v, width);
        }
        const std::size_t nbytes = bw.sizeBytes();
        std::unique_ptr<u8[]> exact(new u8[nbytes]);
        std::memcpy(exact.get(), bw.bytes().data(), nbytes);

        BitReader br(exact.get(), bw.sizeBits());
        for (const auto &[v, width] : fields)
            ASSERT_EQ(br.get(width), v) << "width " << width;
        ASSERT_EQ(br.remaining(), 0u);
    }
}

TEST(BitStreamDeath, MultiBitGetPastEndPanics)
{
    BitWriter bw;
    bw.put(0xABCD, 16);
    bw.put(0x3, 2);
    BitReader br(bw);
    br.get(10);
    EXPECT_DEATH(br.get(9), "overrun");
    EXPECT_DEATH(br.get(64), "overrun");
}

TEST(BitStreamDeath, OverrunPanics)
{
    BitWriter bw;
    bw.putBit(1);
    BitReader br(bw);
    br.getBit();
    EXPECT_DEATH(br.getBit(), "overrun");
}

} // namespace
} // namespace buddy
