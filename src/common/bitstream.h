/**
 * @file
 * Bit-granularity serialization used by the compression codecs.
 *
 * Compressed memory entries are variable-length bit strings; BitWriter and
 * BitReader provide LSB-first bit packing so that encode/decode pairs are
 * bit-exact and the compressed size in bits can be measured precisely.
 */

#pragma once

#include <cstddef>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace buddy {

/** Append-only LSB-first bit packer. */
class BitWriter
{
  public:
    BitWriter() = default;

    /** Append the low @p nbits bits of @p value (nbits in [0, 64]). */
    void
    put(u64 value, unsigned nbits)
    {
        BUDDY_CHECK(nbits <= 64, "BitWriter::put supports at most 64 bits");
        for (unsigned i = 0; i < nbits; ++i) {
            putBit((value >> i) & 1u);
        }
    }

    /** Append a single bit. */
    void
    putBit(bool bit)
    {
        const std::size_t byte = bitCount_ / 8;
        const unsigned off = bitCount_ % 8;
        if (byte >= bytes_.size())
            bytes_.push_back(0);
        if (bit)
            bytes_[byte] |= static_cast<u8>(1u << off);
        ++bitCount_;
    }

    /** Number of bits written so far. */
    std::size_t sizeBits() const { return bitCount_; }

    /** Number of bytes needed to hold the written bits (rounded up). */
    std::size_t sizeBytes() const { return (bitCount_ + 7) / 8; }

    /** Backing byte storage (padded with zero bits in the last byte). */
    const std::vector<u8> &bytes() const { return bytes_; }

  private:
    std::vector<u8> bytes_;
    std::size_t bitCount_ = 0;
};

/**
 * LSB-first bit packer over a caller-provided fixed buffer.
 *
 * The allocation-free sibling of BitWriter, used on the hot batch path:
 * codecs encode into a CompressionScratch buffer that is reused across a
 * whole AccessBatch, so no heap traffic occurs per entry. Bytes are
 * cleared lazily as the writer first touches them (the first byte of a
 * put keeps only the bits already written; every later byte is
 * overwritten whole), which makes reuse of a dirty scratch buffer safe.
 * A put may therefore also zero bytes past the written bits, but never
 * a byte past the capacity. Overflowing the buffer is a checked panic.
 */
class FixedBitWriter
{
  public:
    FixedBitWriter(u8 *buf, std::size_t cap_bytes)
        : buf_(buf), capBits_(cap_bytes * 8)
    {}

    /** Append the low @p nbits bits of @p value (nbits in [0, 64]). */
    void
    put(u64 value, unsigned nbits)
    {
        BUDDY_CHECK(nbits <= 64,
                    "FixedBitWriter::put supports at most 64 bits");
        BUDDY_CHECK(bitCount_ + nbits <= capBits_,
                    "FixedBitWriter overflow");
        if (nbits == 0)
            return;
        if (nbits < 64)
            value &= (1ull << nbits) - 1;
        std::size_t byte = bitCount_ / 8;
        const unsigned off = bitCount_ % 8;
        if (byte + 16 <= capBits_ / 8) {
            // Word store: the kept bits of the first byte merged with
            // the field, stored as 8 bytes; a field that crosses them
            // spills into the next 8. Only the first byte is loaded: an
            // 8-byte load overlapping the previous put's store at
            // another offset would stall on store forwarding.
            const u64 word =
                (buf_[byte] & ((1u << off) - 1u)) | (value << off);
            std::memcpy(buf_ + byte, &word, sizeof(word));
            if (off + nbits > 64) {
                const u64 spill = value >> (64 - off);
                std::memcpy(buf_ + byte + 8, &spill, sizeof(spill));
            }
            bitCount_ += nbits;
            return;
        }
        // Within 16 bytes of the end: one byte at a time, so no store
        // passes the capacity.
        const u8 kept = static_cast<u8>(buf_[byte] & ((1u << off) - 1u));
        buf_[byte] = static_cast<u8>(kept | (value << off));
        for (unsigned done = 8 - off; done < nbits; done += 8)
            buf_[++byte] = static_cast<u8>(value >> done);
        bitCount_ += nbits;
    }

    /** Append a single bit. */
    void
    putBit(bool bit)
    {
        BUDDY_CHECK(bitCount_ < capBits_, "FixedBitWriter overflow");
        const std::size_t byte = bitCount_ / 8;
        const unsigned off = bitCount_ % 8;
        if (off == 0)
            buf_[byte] = 0; // lazily clear each byte on first touch
        if (bit)
            buf_[byte] |= static_cast<u8>(1u << off);
        ++bitCount_;
    }

    /** Restart the writer at bit zero (reuses the same buffer). */
    void reset() { bitCount_ = 0; }

    /** Number of bits written so far. */
    std::size_t sizeBits() const { return bitCount_; }

    /** Number of bytes needed to hold the written bits (rounded up). */
    std::size_t sizeBytes() const { return (bitCount_ + 7) / 8; }

    /** The backing buffer (valid for sizeBytes() bytes). */
    const u8 *data() const { return buf_; }

  private:
    u8 *buf_;
    std::size_t capBits_;
    std::size_t bitCount_ = 0;
};

/**
 * LSB-first bit unpacker over a byte buffer produced by BitWriter.
 *
 * Reads never touch a byte past (size_bits + 7) / 8. Every read starts
 * from one 8-byte window at the read position: an unaligned
 * little-endian load where the buffer holds 8 more bytes, else a load
 * of the buffer's last 8 bytes shifted down (a byte loop only for
 * buffers shorter than 8 bytes). A field of at most 56 bits is one
 * window, a shift and a mask; a wider one is two windows.
 */
class BitReader
{
  public:
    BitReader(const u8 *data, std::size_t size_bits)
        : data_(data), sizeBits_(size_bits)
    {}

    explicit BitReader(const BitWriter &w)
        : data_(w.bytes().data()), sizeBits_(w.sizeBits())
    {}

    /** Read @p nbits bits (LSB first) as an unsigned value. */
    u64
    get(unsigned nbits)
    {
        BUDDY_CHECK(nbits <= 64, "BitReader::get supports at most 64 bits");
        BUDDY_CHECK(nbits <= sizeBits_ - pos_, "BitReader overrun");
        if (nbits <= 56) {
            const u64 v = window() & ((1ull << nbits) - 1);
            pos_ += nbits;
            return v;
        }
        const u64 lo = window() & 0xFFFFFFFFull;
        pos_ += 32;
        const u64 hi = window() & ((1ull << (nbits - 32)) - 1);
        pos_ += nbits - 32;
        return lo | (hi << 32);
    }

    /**
     * The next min(56, remaining()) bits without consuming them, LSB
     * first; every higher bit is zero. Decoders branch on a symbol's
     * code and take its payload from one peek, then skip() its length.
     */
    u64
    peek() const
    {
        const std::size_t left = sizeBits_ - pos_;
        const unsigned n = left < 56 ? static_cast<unsigned>(left) : 56;
        return window() & ((1ull << n) - 1);
    }

    /** Consume @p nbits bits (checked against the end like get()). */
    void
    skip(std::size_t nbits)
    {
        BUDDY_CHECK(nbits <= sizeBits_ - pos_, "BitReader overrun");
        pos_ += nbits;
    }

    /** Read one bit. */
    bool
    getBit()
    {
        BUDDY_CHECK(pos_ < sizeBits_, "BitReader overrun");
        const bool bit = (data_[pos_ / 8] >> (pos_ % 8)) & 1u;
        ++pos_;
        return bit;
    }

    /** Bits consumed so far. */
    std::size_t pos() const { return pos_; }

    /** Bits remaining. */
    std::size_t remaining() const { return sizeBits_ - pos_; }

  private:
    /**
     * At least 57 bits from the read position (fewer near the end,
     * zero-filled past the last byte); bits past the stream inside its
     * last byte are not masked.
     */
    u64
    window() const
    {
        const std::size_t byte = pos_ / 8;
        const std::size_t end = (sizeBits_ + 7) / 8;
        u64 w = 0;
        if (byte + 8 <= end) {
            std::memcpy(&w, data_ + byte, sizeof(w));
        } else if (end >= 8 && byte < end) {
            // The buffer's last 8 bytes, shifted down to the read byte.
            std::memcpy(&w, data_ + end - 8, sizeof(w));
            w >>= 8 * (byte + 8 - end);
        } else { // a buffer shorter than 8 bytes, or no byte left
            for (std::size_t i = byte; i < end; ++i)
                w |= static_cast<u64>(data_[i]) << (8 * (i - byte));
        }
        return w >> (pos_ % 8);
    }

    const u8 *data_;
    std::size_t sizeBits_;
    std::size_t pos_ = 0;
};

} // namespace buddy
