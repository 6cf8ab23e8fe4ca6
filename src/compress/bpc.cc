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
 * Base-word code:
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
        bw.put(0b00, 2);
    else if (sbase >= -8 && sbase < 8)
        bw.put(0b10 | (base & 0xF) << 2, 6);
    else if (sbase >= -32768 && sbase < 32768)
        bw.put(0b01 | (base & 0xFFFF) << 2, 18);
    else
        bw.put(0b11 | static_cast<u64>(base) << 2, 34);
}

u32
decodeBase(BitReader &br)
{
    switch (br.get(2)) {
      case 0b00:
        return 0;
      case 0b10: { // "01": 4-bit sign-extended
        const u32 v = static_cast<u32>(br.get(4));
        return static_cast<u32>(static_cast<i32>(v << 28) >> 28);
      }
      case 0b01: { // "10": 16-bit sign-extended
        const u32 v = static_cast<u32>(br.get(16));
        return static_cast<u32>(static_cast<i32>(v << 16) >> 16);
      }
      default:
        return static_cast<u32>(br.get(32));
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
 * In-place transpose of a 32x32 bit matrix, LSB-first: bit j of row i
 * trades places with bit i of row j. Rows are paired into 64-bit words
 * (row 2m in the low half of word m, row 2m+1 in the high half), so
 * the 16-, 8-, 4- and 2-row masked block swaps move two rows per
 * operation and the last 1-row swap happens inside each word. The code
 * is straight-line: each stage's row distance J, mask and word indices
 * are compile-time constants, expanded by a fold over the stage's words.
 */
void
transpose32(u32 *rows)
{
    u64 pair[16];
    std::memcpy(pair, rows, sizeof(pair));
    constexpr auto kHalf = std::make_index_sequence<8>{};
    swapStage<16, 0x0000FFFF0000FFFFull>(pair, kHalf);
    swapStage<8, 0x00FF00FF00FF00FFull>(pair, kHalf);
    swapStage<4, 0x0F0F0F0F0F0F0F0Full>(pair, kHalf);
    swapStage<2, 0x3333333333333333ull>(pair, kHalf);
    swapInWords(pair, std::make_index_sequence<16>{});
    std::memcpy(rows, pair, sizeof(pair));
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
    // across xd. One 32x32 bit-matrix transpose of the low 32 bits of
    // xd[0..30] turns the columns into planes 0..31 at once; the top
    // plane is gathered as the deltas are formed. The OR-reductions
    // give a constant-time DBP-zero test per plane (or_d) and skip the
    // transpose when planes 0..31 are all zero (or_x).
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
    if (static_cast<u32>(or_x) != 0)
        transpose32(planes);
    planes[kPlanes - 1] = top;

    FixedBitWriter bw(out, kMaxEncodedBytes);
    bw.putBit(0); // format tag: 0 = BPC, 1 = raw fallback
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

    if (br.getBit()) { // raw fallback
        for (std::size_t i = 0; i < kEntryBytes; i += sizeof(u32)) {
            const u32 word = static_cast<u32>(br.get(32));
            std::memcpy(out + i, &word, sizeof(word));
        }
        return;
    }

    const u32 base = decodeBase(br);

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
    // the delta transform inverts as a running 32-bit sum.
    transpose32(planes);
    u32 words[kWordsPerEntry];
    words[0] = base;
    for (unsigned i = 0; i < kPlaneBits; ++i)
        words[i + 1] = words[i] + planes[i];
    storeWords(words, out);
}

} // namespace buddy
