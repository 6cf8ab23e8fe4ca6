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

/** A heap copy of @p n bytes, so ASan flags a read past its end. */
std::unique_ptr<u8[]>
exactCopy(const u8 *p, std::size_t n)
{
    std::unique_ptr<u8[]> copy(new u8[n]);
    std::memcpy(copy.get(), p, n);
    return copy;
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
    // with 0xFF it must still produce exactly BitWriter's bytes. Half
    // the iterations write until the buffer is full, which takes the
    // writer from word stores to the byte loop of its last 16 bytes;
    // the canary byte past the capacity must never be written.
    Rng rng(7);
    constexpr std::size_t kCap = 160;
    constexpr u8 kCanary = 0x5A;
    u8 buf[kCap + 1];
    for (int iter = 0; iter < 300; ++iter) {
        std::memset(buf, 0xFF, kCap);
        buf[kCap] = kCanary;
        BitWriter ref;
        FixedBitWriter fw(buf, kCap);
        const bool fill = iter % 2 == 0;
        const int nfields = 1 + static_cast<int>(rng.below(60));
        for (int i = 0; fill || i < nfields; ++i) {
            const std::size_t room = kCap * 8 - fw.sizeBits();
            if (room == 0)
                break;
            unsigned width = randomWidth(rng);
            if (width > room)
                width = static_cast<unsigned>(room); // end exactly full
            const u64 v = randomValue(rng, width);
            // Unmasked high bits must not leak into the stream.
            const u64 dirty = width == 64 ? v : v | (rng.next() << width);
            ref.put(v, width);
            fw.put(dirty, width);
            if (rng.below(4) == 0 && fw.sizeBits() < kCap * 8) {
                const bool bit = rng.below(2) != 0;
                ref.putBit(bit);
                fw.putBit(bit);
            }
        }
        ASSERT_EQ(fw.sizeBits(), ref.sizeBits());
        ASSERT_EQ(fw.sizeBytes(), ref.sizeBytes());
        if (fill) {
            ASSERT_EQ(fw.sizeBits(), kCap * 8);
        }
        ASSERT_EQ(std::memcmp(fw.data(), ref.bytes().data(),
                              ref.sizeBytes()),
                  0)
            << "iteration " << iter;
        ASSERT_EQ(buf[kCap], kCanary) << "iteration " << iter;
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
        const auto exact = exactCopy(bw.bytes().data(), bw.sizeBytes());
        BitReader br(exact.get(), bw.sizeBits());
        for (const auto &[v, width] : fields)
            ASSERT_EQ(br.get(width), v) << "width " << width;
        ASSERT_EQ(br.remaining(), 0u);
    }
}

TEST(BitStream, PeekZeroPadsPastTheEnd)
{
    // Every bit of the buffer is set, but the stream ends at bit 13.
    const u8 ones[] = {0xFF, 0xFF};
    const auto buf = exactCopy(ones, sizeof(ones));
    BitReader br(buf.get(), 13);
    EXPECT_EQ(br.peek(), 0x1FFFull);
    br.skip(10);
    EXPECT_EQ(br.peek(), 0x7ull);
    EXPECT_EQ(br.pos(), 10u); // peek consumes nothing
    br.skip(3);
    EXPECT_EQ(br.peek(), 0ull);
}

TEST(BitStream, PeekReturnsAtMost56Bits)
{
    u8 ones[20];
    std::memset(ones, 0xFF, sizeof(ones));
    const auto buf = exactCopy(ones, sizeof(ones));
    BitReader br(buf.get(), sizeof(ones) * 8);
    for (unsigned off = 0; off < 8; ++off) {
        EXPECT_EQ(br.peek(), (1ull << 56) - 1) << "offset " << off;
        br.skip(1);
    }
    br.skip(sizeof(ones) * 8 - 8 - 50);
    EXPECT_EQ(br.peek(), (1ull << 50) - 1);
}

TEST(BitStream, PeekSeesAFieldEndingExactlyAtTheEnd)
{
    // A 0..63-bit lead-in, then a 1..56-bit field on the last bit.
    Rng rng(3);
    for (int iter = 0; iter < 200; ++iter) {
        const unsigned lead = static_cast<unsigned>(rng.below(64));
        const unsigned width = 1 + static_cast<unsigned>(rng.below(56));
        const u64 v = randomValue(rng, width);
        BitWriter bw;
        bw.put(randomValue(rng, lead), lead);
        bw.put(v, width);
        const auto buf = exactCopy(bw.bytes().data(), bw.sizeBytes());
        BitReader br(buf.get(), bw.sizeBits());
        br.skip(lead);
        ASSERT_EQ(br.peek(), v) << "width " << width;
        br.skip(width);
        ASSERT_EQ(br.remaining(), 0u);
        ASSERT_EQ(br.peek(), 0ull);
    }
}

TEST(BitStreamDeath, SkipPastEndPanics)
{
    BitWriter bw;
    bw.put(0x1F, 5);
    BitReader br(bw);
    br.skip(3);
    EXPECT_DEATH(br.skip(3), "overrun");
    br.skip(2);
    EXPECT_DEATH(br.skip(1), "overrun");
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
