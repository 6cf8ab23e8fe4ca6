#include "compress/fpc.h"

#include <cstring>

#include "common/bitstream.h"
#include "common/check.h"

namespace buddy {

namespace {

bool
fitsSigned32(i32 v, unsigned bits)
{
    const i32 lo = -(1 << (bits - 1));
    const i32 hi = (1 << (bits - 1)) - 1;
    return v >= lo && v <= hi;
}

} // namespace

std::size_t
FpcCompressor::compressInto(const u8 *data, u8 *out,
                            CompressionScratch &) const
{
    u32 words[kWordsPerEntry];
    loadWords(data, words);

    // Each word is its 3-bit prefix then its payload, in one put.
    FixedBitWriter bw(out, kMaxEncodedBytes);
    bw.putBit(0); // format tag: 0 = FPC stream, 1 = raw fallback
    unsigned i = 0;
    while (i < kWordsPerEntry) {
        const u32 w = words[i];
        if (w == 0) {
            unsigned run = 1;
            while (i + run < kWordsPerEntry && words[i + run] == 0 &&
                   run < 8)
                ++run;
            bw.put(0b000 | (run - 1) << 3, 6);
            i += run;
            continue;
        }
        const i32 sw = static_cast<i32>(w);
        if (fitsSigned32(sw, 4)) {
            bw.put(0b001 | (w & 0xF) << 3, 7);
        } else if (fitsSigned32(sw, 8)) {
            bw.put(0b010 | (w & 0xFF) << 3, 11);
        } else if (fitsSigned32(sw, 16)) {
            bw.put(0b011 | (w & 0xFFFF) << 3, 19);
        } else if ((w & 0xFFFF) == 0) {
            bw.put(0b100 | (w >> 16) << 3, 19);
        } else if (fitsSigned32(static_cast<i16>(w & 0xFFFF), 8) &&
                   fitsSigned32(static_cast<i16>(w >> 16), 8)) {
            bw.put(0b101 | (w & 0xFF) << 3 | ((w >> 16) & 0xFF) << 11, 19);
        } else if (((w >> 24) & 0xFF) == (w & 0xFF) &&
                   ((w >> 16) & 0xFF) == (w & 0xFF) &&
                   ((w >> 8) & 0xFF) == (w & 0xFF)) {
            bw.put(0b110 | (w & 0xFF) << 3, 11);
        } else {
            bw.put(0b111 | static_cast<u64>(w) << 3, 35);
        }
        ++i;
    }

    if (bw.sizeBits() >= kEntryBytes * 8 + 1) {
        // Incompressible: fall back to a tagged raw copy, overwriting
        // the FPC stream from the start of `out`.
        bw.reset();
        bw.putBit(1);
        for (std::size_t k = 0; k < kEntryBytes; k += sizeof(u64)) {
            u64 chunk = 0;
            std::memcpy(&chunk, data + k, sizeof(chunk));
            bw.put(chunk, 64);
        }
    }
    return bw.sizeBits();
}

void
FpcCompressor::decompressFrom(const u8 *payload, std::size_t size_bits,
                              u8 *out) const
{
    BitReader br(payload, size_bits);
    if (br.getBit()) { // raw fallback
        for (std::size_t k = 0; k < kEntryBytes; k += sizeof(u64)) {
            const u64 chunk = br.get(64);
            std::memcpy(out + k, &chunk, sizeof(chunk));
        }
        return;
    }
    // One peek per word: branch on the prefix, take the payload from
    // the bits above it, then skip the whole symbol.
    u32 words[kWordsPerEntry];
    unsigned i = 0;
    while (i < kWordsPerEntry) {
        const u64 sym = br.peek();
        const u32 v = static_cast<u32>(sym >> 3);
        switch (sym & 7) {
          case 0b000: {
            const unsigned run = (v & 7) + 1;
            br.skip(6);
            for (unsigned k = 0; k < run; ++k) {
                BUDDY_CHECK(i < kWordsPerEntry, "FPC zero run overrun");
                words[i++] = 0;
            }
            break;
          }
          case 0b001:
            br.skip(7);
            words[i++] = static_cast<u32>(static_cast<i32>(v << 28) >> 28);
            break;
          case 0b010:
            br.skip(11);
            words[i++] = static_cast<u32>(static_cast<i32>(v << 24) >> 24);
            break;
          case 0b011:
            br.skip(19);
            words[i++] = static_cast<u32>(static_cast<i32>(v << 16) >> 16);
            break;
          case 0b100:
            br.skip(19);
            words[i++] = v << 16;
            break;
          case 0b101: {
            br.skip(19);
            const u32 lo16 = static_cast<u32>(
                                 static_cast<i32>(v << 24) >> 24) &
                             0xFFFF;
            const u32 hi16 = static_cast<u32>(
                                 static_cast<i32>((v >> 8) << 24) >> 24) &
                             0xFFFF;
            words[i++] = (hi16 << 16) | lo16;
            break;
          }
          case 0b110: {
            br.skip(11);
            const u32 b = v & 0xFF;
            words[i++] = b | (b << 8) | (b << 16) | (b << 24);
            break;
          }
          default:
            br.skip(35);
            words[i++] = v;
            break;
        }
    }
    storeWords(words, out);
}

} // namespace buddy
