/**
 * @file
 * Abstract interface for 128 B memory-entry compressors.
 *
 * Buddy Compression (Section 2.4) compresses at the granularity of one
 * 128 B memory entry. Every codec in this library is a real, bit-exact
 * encoder/decoder pair: compression ratios reported by the experiments are
 * measured from actual encoded bit lengths, never estimated.
 *
 * The interface is allocation-free: codecs implement compressInto() /
 * decompressFrom(), which encode into (decode from) a caller-provided
 * buffer. A CompressionScratch bundles the buffers one in-flight access
 * needs; the batched access plan (buddy::api) reuses one scratch across
 * an entire AccessBatch, so the hot path performs zero per-entry heap
 * allocations.
 */

#pragma once

#include <cstring>
#include <memory>
#include <string>

#include "common/types.h"

namespace buddy {

/**
 * Upper bound on any codec's encoded entry size in bytes. The worst case
 * in the library is FPC's all-raw stream (1 + 32 * 35 = 1121 bits =
 * 141 B); BPC and BDI cap at a tagged raw copy (1025 / 1028 bits).
 * Rounded up with headroom.
 */
constexpr std::size_t kMaxEncodedBytes = 160;

/**
 * Reusable working memory for one in-flight compression/decompression.
 *
 * `encode` receives encoder output; `io` is used by the access path to
 * reassemble a payload split across device and buddy memory before
 * decoding. Allocate one per batch (or thread) and reuse it: the buffers
 * never need clearing between entries.
 */
struct CompressionScratch
{
    alignas(8) u8 encode[kMaxEncodedBytes];
    alignas(8) u8 io[kMaxEncodedBytes];
};

/** Interface implemented by every memory-entry codec. */
class Compressor
{
  public:
    virtual ~Compressor() = default;

    /** Human-readable codec name ("bpc", "bdi", ...). */
    virtual const char *name() const = 0;

    /**
     * Compress one 128 B entry into @p out without allocating.
     *
     * @param out     receives the LSB-first packed payload; must hold at
     *                least kMaxEncodedBytes bytes (scratch.encode
     *                qualifies, but any caller buffer works).
     * @param scratch reusable working memory for codecs that need it.
     * @return exact encoded length in bits.
     */
    virtual std::size_t compressInto(const u8 *data, u8 *out,
                                     CompressionScratch &scratch) const = 0;

    /**
     * Decompress an entry previously produced by compressInto().
     * @param payload   LSB-first packed payload bytes.
     * @param size_bits exact encoded length in bits.
     * @param out       receives exactly kEntryBytes bytes.
     */
    virtual void decompressFrom(const u8 *payload, std::size_t size_bits,
                                u8 *out) const = 0;
};

/** True if all kEntryBytes bytes of @p data are zero. */
inline bool
entryIsZero(const u8 *data)
{
    // Word-wise OR-reduction: this runs on every write in the hot path,
    // so avoid the byte-at-a-time early-exit loop. memcpy keeps the load
    // alignment-safe; the compiler lowers it to plain vector loads.
    u64 words[kEntryBytes / sizeof(u64)];
    std::memcpy(words, data, kEntryBytes);
    u64 acc = 0;
    for (std::size_t i = 0; i < kEntryBytes / sizeof(u64); ++i)
        acc |= words[i];
    return acc == 0;
}

/** Load the entry as 32 little-endian 32-bit words. */
inline void
loadWords(const u8 *data, u32 *words)
{
    std::memcpy(words, data, kEntryBytes);
}

/** Store 32 little-endian 32-bit words back into an entry buffer. */
inline void
storeWords(const u32 *words, u8 *data)
{
    std::memcpy(data, words, kEntryBytes);
}

} // namespace buddy
