/**
 * @file
 * Trivial zero-detection codec: an all-zero entry compresses to a single
 * tag bit; anything else is stored raw. Used as the floor baseline in the
 * compressor ablation and by tests.
 */

#pragma once

#include <cstring>

#include "common/bitstream.h"
#include "compress/compressor.h"

namespace buddy {

/** Zero-or-raw codec (see file header). */
class ZeroCompressor : public Compressor
{
  public:
    const char *name() const override { return "zero"; }

    std::size_t
    compressInto(const u8 *data, u8 *out,
                 CompressionScratch &) const override
    {
        FixedBitWriter bw(out, kMaxEncodedBytes);
        if (entryIsZero(data)) {
            bw.putBit(0);
        } else {
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
    decompressFrom(const u8 *payload, std::size_t size_bits,
                   u8 *out) const override
    {
        BitReader br(payload, size_bits);
        if (!br.getBit()) {
            std::memset(out, 0, kEntryBytes);
            return;
        }
        for (std::size_t i = 0; i < kEntryBytes; i += sizeof(u32)) {
            const u32 word = static_cast<u32>(br.get(32));
            std::memcpy(out + i, &word, sizeof(word));
        }
    }
};

} // namespace buddy
