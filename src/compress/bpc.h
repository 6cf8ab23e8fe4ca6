/**
 * @file
 * Bit-Plane Compression (BPC), the codec Buddy Compression builds on.
 *
 * Re-implementation of the algorithm of Kim, Sullivan, Choukse and Erez,
 * "Bit-Plane Compression: Transforming Data for Better Compression in
 * Many-Core Architectures" (ISCA 2016), as selected by the Buddy
 * Compression paper (Section 2.4).
 *
 * A 128 B memory entry is viewed as 32 x 32-bit words:
 *   1. Delta transform: 31 deltas d[i] = w[i+1] - w[i] (33-bit two's
 *      complement) plus the 32-bit base word w[0].
 *   2. Bit-plane transform: DBP[b] (b = 0..32) collects bit b of every
 *      delta, giving 33 planes of 31 bits each.
 *   3. Adjacent-plane XOR: DBX[b] = DBP[b] ^ DBP[b+1], DBX[32] = DBP[32].
 *      Sign-extension makes high planes of smooth data identical, so their
 *      DBX planes become zero and run-length encode extremely well.
 *   4. Each DBX plane is encoded with a prefix-free pattern code
 *      (zero runs, all-ones, single/double ones, raw fallback), and the
 *      base word with a small sign-extension code.
 *
 * Step 2 is a 32x32 bit-matrix transpose of the deltas' low 32 bits
 * (the top plane is gathered separately), and both directions do only
 * the part the data needs. The encoder needs only DBX planes 0..15
 * when every delta's bits 16..32 are equal; the decoder needs only DBP
 * planes 0..15 when planes 16..31 repeat plane 15, i.e. every delta is
 * a sign-extended 16-bit value. Either then packs its rows into two
 * 16x16 blocks and transposes each block in place: four of the five
 * swap stages, over half the words. When every word equals the base,
 * every plane is zero and nothing is transposed.
 *
 * A stream opens with a 1-bit format tag (0 = BPC, 1 = raw), written
 * and read as one field with the base code. The encoder falls back to
 * a tagged raw copy whenever the transformed encoding would exceed the
 * original 1024 bits, so the compressed size is bounded by 1025 bits.
 * Encode/decode is bit-exact and covered by property tests.
 */

#pragma once

#include "compress/compressor.h"

namespace buddy {

/** Bit-Plane Compression codec (see file header). */
class BpcCompressor : public Compressor
{
  public:
    const char *name() const override { return "bpc"; }

    std::size_t compressInto(const u8 *data, u8 *out,
                             CompressionScratch &scratch) const override;
    void decompressFrom(const u8 *payload, std::size_t size_bits,
                        u8 *out) const override;

    /** Number of delta bit-planes (32 delta bits + carry/sign bit). */
    static constexpr unsigned kPlanes = 33;

    /** Bits per plane = number of deltas (32 words -> 31 deltas). */
    static constexpr unsigned kPlaneBits = 31;
};

} // namespace buddy
