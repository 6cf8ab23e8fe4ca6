#include "compress/bpc.h"

#include <cstring>
#include <utility>

#include "common/bitstream.h"
#include "common/check.h"

namespace buddy {

namespace {

constexpr u64 kPlaneMask = (1ull << BpcCompressor::kPlaneBits) - 1;
constexpr u64 kDeltaMask = (1ull << BpcCompressor::kPlanes) - 1;
constexpr std::size_t kRawBits = kEntryBytes * 8;

/*
 * Prefix-free DBX plane symbol codes. The set below mirrors the structure
 * of the published BPC code table (zero runs, all-ones, DBP-zero shortcut,
 * two consecutive ones, single one, raw plane):
 *
 *   "01"                     single all-zero DBX plane            (2 bits)
 *   "001" + 5-bit (run-2)    run of 2..33 all-zero DBX planes     (8 bits)
 *   "00000"                  all-ones DBX plane                   (5 bits)
 *   "00001"                  DBX != 0 but DBP == 0                (5 bits)
 *   "00010" + 5-bit pos      two consecutive ones at pos, pos+1  (10 bits)
 *   "00011" + 5-bit pos      single one at pos                   (10 bits)
 *   "1"     + 31 raw bits    uncompressed plane                  (32 bits)
 *
 * Codes are written LSB-first, so a code's first bit is bit 0 of its
 * value. The encoder writes each symbol, code and payload together, with
 * one put; the decoder peeks once per symbol, branches on the low bits
 * and takes the payload from the same word.
 */

void
emitZeroPlanes(FixedBitWriter &bw, unsigned run)
{
    while (run > 0) {
        if (run == 1) {
            bw.put(0b10, 2); // "01"
            run = 0;
        } else {
            const unsigned chunk = run > 33 ? 33 : run;
            bw.put(0b100 | (chunk - 2) << 3, 8); // "001" + run
            run -= chunk;
        }
    }
}

/**
 * Format tag and base-word code, written as one field. Bit 0 is the
 * format tag (0 = BPC, 1 = raw fallback); a BPC stream follows it with
 *   "00"            zero base                         (2 bits)
 *   "01" + 4 bits   4-bit sign-extended base          (6 bits)
 *   "10" + 16 bits  16-bit sign-extended base        (18 bits)
 *   "11" + 32 bits  raw base                         (34 bits)
 */
void
encodeBase(FixedBitWriter &bw, u32 base)
{
    const i32 sbase = static_cast<i32>(base);
    if (base == 0)
        bw.put(0b00 << 1, 3);
    else if (sbase >= -8 && sbase < 8)
        bw.put((0b10 | (base & 0xF) << 2) << 1, 7);
    else if (sbase >= -32768 && sbase < 32768)
        bw.put((0b01 | (base & 0xFFFF) << 2) << 1, 19);
    else
        bw.put((0b11 | static_cast<u64>(base) << 2) << 1, 35);
}

/** The low 16 bits of @p x, sign-extended to 32. */
inline u32
signExtend16(u32 x)
{
    return static_cast<u32>(static_cast<i32>(x << 16) >> 16);
}

/** Decode the base word of a BPC stream whose first bits are @p head. */
u32
decodeBase(BitReader &br, u64 head)
{
    switch (head >> 1 & 3) {
      case 0b00:
        br.skip(3);
        return 0;
      case 0b10: { // "01": 4-bit sign-extended
        br.skip(7);
        const u32 v = static_cast<u32>(head >> 3 & 0xF);
        return static_cast<u32>(static_cast<i32>(v << 28) >> 28);
      }
      case 0b01: // "10": 16-bit sign-extended
        br.skip(19);
        return signExtend16(static_cast<u32>(head >> 3));
      default:
        br.skip(35);
        return static_cast<u32>(head >> 3);
    }
}

/**
 * Masked block swap between word M and word M + J/2, whose rows are J
 * apart: in every 2J-bit group, the high J bits of word M's two rows
 * trade places with the low J bits of the other word's two rows. Mask
 * holds the low J bits of every 2J.
 */
template <unsigned J, u64 Mask, std::size_t M>
inline void
swapBlocks(u64 *pair)
{
    const u64 t = ((pair[M] >> J) ^ pair[M + J / 2]) & Mask;
    pair[M + J / 2] ^= t;
    pair[M] ^= t << J;
}

/** One swap stage: the eight words K with bit J/2 of their index clear. */
template <unsigned J, u64 Mask, std::size_t... K>
inline void
swapStage(u64 *pair, std::index_sequence<K...>)
{
    (swapBlocks<J, Mask, K / (J / 2) * J + K % (J / 2)>(pair), ...);
}

/** The 1-row swap between the two rows of one word. */
template <std::size_t... M>
inline void
swapInWords(u64 *pair, std::index_sequence<M...>)
{
    const auto swap = [](u64 w) {
        const u64 t = ((w >> 1) ^ (w >> 32)) & 0x55555555ull;
        return w ^ (t << 32 | t << 1);
    };
    ((pair[M] = swap(pair[M])), ...);
}

/**
 * In-place bit-matrix swap over W rows of 32 bits, LSB-first. Rows are
 * paired into W/2 64-bit words (row 2m in the low half of word m, row
 * 2m+1 in the high half), so the 16-, 8-, 4- and 2-row masked block
 * swaps move two rows per operation and the last 1-row swap happens
 * inside each word. A stage with row distance J trades bit log2(J) of
 * the row index with the same bit of the column index; the stages
 * commute and each one undoes itself.
 *
 *   W = 32: every index bit is traded, so the matrix is transposed:
 *           bit j of row i trades places with bit i of row j.
 *   W = 16: bits 0..3 are traded and column bit 4 stays, so the two
 *           16x16 blocks (columns 0..15 and 16..31) are each
 *           transposed in place; applying it twice restores the rows.
 *
 * The code is straight-line: each stage's row distance, mask and word
 * indices are compile-time constants, expanded by a fold over the
 * stage's words.
 */
template <unsigned W>
void
swapRows(u64 *pair)
{
    static_assert(W == 16 || W == 32, "swapRows pairs 16 or 32 rows");
    constexpr auto kHalf = std::make_index_sequence<W / 4>{};
    if constexpr (W == 32)
        swapStage<16, 0x0000FFFF0000FFFFull>(pair, kHalf);
    swapStage<8, 0x00FF00FF00FF00FFull>(pair, kHalf);
    swapStage<4, 0x0F0F0F0F0F0F0F0Full>(pair, kHalf);
    swapStage<2, 0x3333333333333333ull>(pair, kHalf);
    swapInWords(pair, std::make_index_sequence<W / 2>{});
}

} // namespace

std::size_t
BpcCompressor::compressInto(const u8 *data, u8 *out,
                            CompressionScratch &) const
{
    u32 words[kWordsPerEntry];
    loadWords(data, words);

    // Delta transform. xd[i] holds the adjacent-plane XOR (DBX) bits
    // contributed by delta i — bit b of xd[i] is d[b] ^ d[b+1] (and
    // d[32] for the top plane) — so DBX plane b is the bit-b column
    // across xd. A bit-matrix transpose of the low 32 bits of
    // xd[0..30] turns the columns into planes 0..31; the top plane is
    // gathered as the deltas are formed. The OR-reductions give a
    // constant-time DBP-zero test per plane (or_d) and bound which
    // planes the transpose must produce (or_x).
    u32 planes[kPlanes];
    u32 top = 0;
    u64 or_d = 0, or_x = 0;
    for (unsigned i = 0; i < kPlaneBits; ++i) {
        const i64 d = static_cast<i64>(words[i + 1]) -
                      static_cast<i64>(words[i]);
        const u64 du = static_cast<u64>(d) & kDeltaMask;
        const u64 xd = du ^ (du >> 1);
        or_d |= du;
        or_x |= xd;
        planes[i] = static_cast<u32>(xd);
        top |= static_cast<u32>(xd >> 32) << i;
    }
    planes[kPlaneBits] = 0;
    const u32 low_x = static_cast<u32>(or_x);
    if (low_x >> 16 == 0) {
        // Planes 16..31 are zero, and planes 0..31 too when low_x is.
        // Otherwise only columns 0..15 carry bits: pack row i with row
        // i + 16, so that transposing each 16x16 block turns row b into
        // plane b, whole.
        if (low_x != 0) {
            u64 pair[8];
            for (unsigned m = 0; m < 8; ++m) {
                const u32 lo = planes[2 * m] | planes[2 * m + 16] << 16;
                const u32 hi =
                    planes[2 * m + 1] | planes[2 * m + 17] << 16;
                pair[m] = lo | static_cast<u64>(hi) << 32;
            }
            swapRows<16>(pair);
            std::memcpy(planes, pair, sizeof(pair));
            std::memset(planes + 16, 0, 16 * sizeof(planes[0]));
        }
    } else {
        u64 pair[16];
        std::memcpy(pair, planes, sizeof(pair));
        swapRows<32>(pair);
        std::memcpy(planes, pair, sizeof(pair));
    }
    planes[kPlanes - 1] = top;

    FixedBitWriter bw(out, kMaxEncodedBytes);
    encodeBase(bw, words[0]);

    // Emit planes MSB-first so that the sign-extension planes of smooth
    // data coalesce into long zero runs. Once the stream reaches the
    // raw size the fallback below is certain, so stop emitting.
    unsigned zero_run = 0;
    for (int b = kPlanes - 1; b >= 0 && bw.sizeBits() < kRawBits + 1;
         --b) {
        const u32 x = planes[b];
        if (x == 0) {
            ++zero_run;
            continue;
        }
        emitZeroPlanes(bw, zero_run);
        zero_run = 0;

        const unsigned pos = static_cast<unsigned>(__builtin_ctz(x));
        if (x == kPlaneMask) {
            bw.put(0b00000, 5); // "00000"
        } else if (((or_d >> b) & 1ull) == 0) {
            // DBX nonzero but the underlying DBP plane is zero: tell the
            // decoder directly (5-bit shortcut instead of a raw plane).
            bw.put(0b10000, 5); // "00001"
        } else if (x == (0b11ull << pos) && pos + 1 < kPlaneBits) {
            bw.put(0b01000 | pos << 5, 10); // "00010" + pos
        } else if (x == (1ull << pos)) {
            bw.put(0b11000 | pos << 5, 10); // "00011" + pos
        } else {
            bw.put(1 | static_cast<u64>(x) << 1, 1 + kPlaneBits); // "1" + x
        }
    }
    emitZeroPlanes(bw, zero_run);

    if (bw.sizeBits() >= kRawBits + 1) {
        // Transform expanded the data: fall back to a tagged raw copy,
        // overwriting the transformed stream from the start of `out`.
        bw.reset();
        bw.putBit(1);
        for (std::size_t i = 0; i < kEntryBytes; i += sizeof(u64)) {
            u64 chunk = 0;
            std::memcpy(&chunk, data + i, sizeof(chunk));
            bw.put(chunk, 64);
        }
    }
    return bw.sizeBits();
}

void
BpcCompressor::decompressFrom(const u8 *payload, std::size_t size_bits,
                              u8 *out) const
{
    BitReader br(payload, size_bits);

    const u64 head = br.peek();
    if (head & 1) { // raw fallback
        br.skip(1);
        for (std::size_t i = 0; i < kEntryBytes; i += sizeof(u32)) {
            const u32 word = static_cast<u32>(br.get(32));
            std::memcpy(out + i, &word, sizeof(word));
        }
        return;
    }

    const u32 base = decodeBase(br, head);

    // Decode the DBX symbols MSB-first, as the encoder emitted them, and
    // undo the XOR transform on the fly: DBP[b] = DBX[b] ^ DBP[b+1],
    // unless the "DBP == 0" shortcut gives DBP[b] directly. Planes
    // hold 31 delta bits, so u32 rows lose nothing the output reads.
    u32 planes[kPlanes];
    u32 above = 0; // DBP of the plane above plane b
    int b = kPlanes - 1;
    while (b >= 0) {
        const u64 sym = br.peek();
        if (sym & 1) { // "1": raw plane
            above ^= static_cast<u32>(sym >> 1 & kPlaneMask);
            br.skip(1 + kPlaneBits);
            planes[b--] = above;
            continue;
        }
        if (sym & 2) { // "01": single zero plane
            br.skip(2);
            planes[b--] = above;
            continue;
        }
        if (sym & 4) { // "001": zero run
            const unsigned run = static_cast<unsigned>(sym >> 3 & 31) + 2;
            br.skip(8);
            for (unsigned i = 0; i < run; ++i) {
                BUDDY_CHECK(b >= 0, "BPC zero run overruns planes");
                planes[b--] = above;
            }
            continue;
        }
        // "000xx" family: bit 3 and bit 4 pick the symbol.
        const unsigned pos = static_cast<unsigned>(sym >> 5 & 31);
        switch (sym >> 3 & 3) {
          case 0b00: // "00000": all ones
            above ^= static_cast<u32>(kPlaneMask);
            br.skip(5);
            break;
          case 0b10: // "00001": DBP == 0 shortcut
            above = 0;
            br.skip(5);
            break;
          case 0b01: // "00010": two consecutive ones
            above ^= static_cast<u32>(0b11ull << pos);
            br.skip(10);
            break;
          default: // "00011": single one
            above ^= static_cast<u32>(1ull << pos);
            br.skip(10);
            break;
        }
        planes[b--] = above;
    }

    // Invert the bit-plane transform: the transpose turns planes 0..31
    // into the low 32 bits of each delta. Words wrap modulo 2^32, so
    // the delta's bit 32 (the top plane) never reaches the output, and
    // the delta transform inverts as a running 32-bit sum. When planes
    // 16..31 repeat plane 15, every delta is a sign-extended 16-bit
    // value: transposing the two 16x16 blocks of planes 0..15 leaves
    // delta i's low half in row i, or in the high half of row i - 16.
    // When those planes are zero too, every word is the base.
    u32 words[kWordsPerEntry];
    words[0] = base;
    u32 high = 0, low = 0;
    for (unsigned b = 0; b < 16; ++b) {
        high |= planes[b + 16] ^ planes[15];
        low |= planes[b];
    }
    if (high != 0) {
        u64 pair[16];
        std::memcpy(pair, planes, sizeof(pair));
        swapRows<32>(pair);
        std::memcpy(planes, pair, sizeof(pair));
        for (unsigned i = 0; i < kPlaneBits; ++i)
            words[i + 1] = words[i] + planes[i];
    } else if (low != 0) {
        u64 pair[8];
        std::memcpy(pair, planes, sizeof(pair));
        swapRows<16>(pair);
        std::memcpy(planes, pair, sizeof(pair));
        for (unsigned i = 0; i < 16; ++i)
            words[i + 1] = words[i] + signExtend16(planes[i]);
        for (unsigned i = 16; i < kPlaneBits; ++i)
            words[i + 1] = words[i] + signExtend16(planes[i - 16] >> 16);
    } else {
        for (unsigned i = 0; i < kPlaneBits; ++i)
            words[i + 1] = base;
    }
    storeWords(words, out);
}

} // namespace buddy
