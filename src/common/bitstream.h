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
 * Overflowing the buffer is a checked panic.
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
        // Byte-at-a-time: a 64-bit field costs at most nine stores.
        std::size_t byte = bitCount_ / 8;
        const unsigned off = bitCount_ % 8;
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
 * Reads never touch a byte past (size_bits + 7) / 8: a field of at most
 * 56 bits whose 8-byte window lies inside the buffer is one unaligned
 * little-endian load, a shift and a mask; wider fields and fields near
 * the end of the buffer are gathered bit by bit.
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
        const std::size_t byte = pos_ / 8;
        if (nbits <= 56 && byte + 8 <= (sizeBits_ + 7) / 8) {
            u64 window = 0;
            std::memcpy(&window, data_ + byte, sizeof(window));
            const u64 v = (window >> (pos_ % 8)) & ((1ull << nbits) - 1);
            pos_ += nbits;
            return v;
        }
        u64 v = 0;
        for (unsigned i = 0; i < nbits; ++i) {
            v |= static_cast<u64>(getBit()) << i;
        }
        return v;
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
    const u8 *data_;
    std::size_t sizeBits_;
    std::size_t pos_ = 0;
};

} // namespace buddy
