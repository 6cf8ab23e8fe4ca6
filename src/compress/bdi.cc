#include "compress/bdi.h"

#include <cstring>

#include "common/bitstream.h"
#include "common/check.h"

namespace buddy {

namespace {

/**
 * Encoding identifiers stored as the 4-bit header tag.
 * Order matters only for the tag values; the encoder picks the smallest
 * valid encoding.
 */
enum class BdiMode : u8 {
    Zeros = 0,    // all bytes zero
    Repeat8 = 1,  // one repeated 8-byte value
    B8D1 = 2,
    B8D2 = 3,
    B8D4 = 4,
    B4D1 = 5,
    B4D2 = 6,
    B2D1 = 7,
    Raw = 8,
};

struct ModeSpec { BdiMode mode; unsigned baseBytes; unsigned deltaBytes; };

constexpr ModeSpec kModes[] = {
    {BdiMode::B8D1, 8, 1}, {BdiMode::B8D2, 8, 2}, {BdiMode::B8D4, 8, 4},
    {BdiMode::B4D1, 4, 1}, {BdiMode::B4D2, 4, 2}, {BdiMode::B2D1, 2, 1},
};

u64
loadElem(const u8 *data, unsigned idx, unsigned bytes)
{
    u64 v = 0;
    std::memcpy(&v, data + static_cast<std::size_t>(idx) * bytes, bytes);
    return v;
}

i64
signExtend(u64 v, unsigned bytes)
{
    const unsigned shift = 64 - bytes * 8;
    return static_cast<i64>(v << shift) >> shift;
}

bool
fitsSigned(i64 v, unsigned bytes)
{
    const i64 lo = -(1ll << (bytes * 8 - 1));
    const i64 hi = (1ll << (bytes * 8 - 1)) - 1;
    return v >= lo && v <= hi;
}

/** Size in bits of one candidate encoding (4-bit tag included). */
std::size_t
modeBits(const ModeSpec &m)
{
    const unsigned elems = kEntryBytes / m.baseBytes;
    return 4 + m.baseBytes * 8 +
           static_cast<std::size_t>(elems) * (1 + m.deltaBytes * 8);
}

/** Most elements any mode can have (B2D1: 128 B / 2 B). */
constexpr unsigned kMaxElems = kEntryBytes / 2;

/**
 * Check whether every element can be expressed as a deltaBytes-wide signed
 * delta from either zero or the first non-zero-representable element.
 * On success fills @p base and the per-element mask/deltas (fixed-size
 * arrays of kMaxElems: the encoder is allocation-free).
 */
bool
tryMode(const u8 *data, const ModeSpec &m, u64 &base, bool *use_base,
        i64 *deltas)
{
    const unsigned elems = kEntryBytes / m.baseBytes;
    std::memset(use_base, 0, elems * sizeof(*use_base));
    bool have_base = false;
    base = 0;

    for (unsigned i = 0; i < elems; ++i) {
        const u64 raw = loadElem(data, i, m.baseBytes);
        const i64 val = signExtend(raw, m.baseBytes);
        deltas[i] = 0;
        if (fitsSigned(val, m.deltaBytes)) {
            deltas[i] = val; // delta from the implicit zero base
            continue;
        }
        if (!have_base) {
            base = raw;
            have_base = true;
        }
        // Subtract in u64: an 8-byte val/base pair with opposite signs
        // overflows i64 (UB), while the two's-complement wrap is exactly
        // the delta the decoder's wrapping add reconstructs from.
        const i64 d = static_cast<i64>(
            static_cast<u64>(val) -
            static_cast<u64>(signExtend(base, m.baseBytes)));
        if (!fitsSigned(d, m.deltaBytes))
            return false;
        use_base[i] = true;
        deltas[i] = d;
    }
    return true;
}

} // namespace

std::size_t
BdiCompressor::compressInto(const u8 *data, u8 *out,
                            CompressionScratch &) const
{
    FixedBitWriter bw(out, kMaxEncodedBytes);

    if (entryIsZero(data)) {
        bw.put(static_cast<u8>(BdiMode::Zeros), 4);
        return bw.sizeBits();
    }

    u64 first8 = 0;
    std::memcpy(&first8, data, 8);
    bool repeated = true;
    for (unsigned i = 1; i < kEntryBytes / 8 && repeated; ++i)
        repeated = loadElem(data, i, 8) == first8;
    if (repeated) {
        bw.put(static_cast<u8>(BdiMode::Repeat8), 4);
        bw.put(first8, 64);
        return bw.sizeBits();
    }

    // Pick the smallest valid base-delta encoding.
    const ModeSpec *best = nullptr;
    u64 best_base = 0;
    bool best_mask[kMaxElems];
    i64 best_deltas[kMaxElems];
    std::size_t best_bits = kEntryBytes * 8 + 4; // raw cost

    for (const auto &m : kModes) {
        if (modeBits(m) >= best_bits)
            continue;
        u64 base;
        bool mask[kMaxElems];
        i64 deltas[kMaxElems];
        if (tryMode(data, m, base, mask, deltas)) {
            best = &m;
            best_base = base;
            const unsigned elems = kEntryBytes / m.baseBytes;
            std::memcpy(best_mask, mask, elems * sizeof(*mask));
            std::memcpy(best_deltas, deltas, elems * sizeof(*deltas));
            best_bits = modeBits(m);
        }
    }

    if (!best) {
        bw.put(static_cast<u8>(BdiMode::Raw), 4);
        for (unsigned i = 0; i < kEntryBytes / 8; ++i)
            bw.put(loadElem(data, i, 8), 64);
        return bw.sizeBits();
    }

    bw.put(static_cast<u8>(best->mode), 4);
    bw.put(best_base, best->baseBytes * 8);
    // Each element is its mask bit then its delta, in one put (deltas
    // are at most 4 bytes, so the field fits in 33 bits).
    const unsigned elems = kEntryBytes / best->baseBytes;
    const unsigned delta_bits = best->deltaBytes * 8;
    for (unsigned i = 0; i < elems; ++i) {
        const u64 delta =
            static_cast<u64>(best_deltas[i]) & ((1ull << delta_bits) - 1);
        bw.put(static_cast<u64>(best_mask[i]) | delta << 1, 1 + delta_bits);
    }
    return bw.sizeBits();
}

void
BdiCompressor::decompressFrom(const u8 *payload, std::size_t size_bits,
                              u8 *out) const
{
    BitReader br(payload, size_bits);
    const auto mode = static_cast<BdiMode>(br.get(4));

    if (mode == BdiMode::Zeros) {
        std::memset(out, 0, kEntryBytes);
        return;
    }
    if (mode == BdiMode::Repeat8) {
        const u64 v = br.get(64);
        for (unsigned i = 0; i < kEntryBytes / 8; ++i)
            std::memcpy(out + i * 8, &v, 8);
        return;
    }
    if (mode == BdiMode::Raw) {
        for (unsigned i = 0; i < kEntryBytes / 8; ++i) {
            const u64 v = br.get(64);
            std::memcpy(out + i * 8, &v, 8);
        }
        return;
    }

    const ModeSpec *spec = nullptr;
    for (const auto &m : kModes)
        if (m.mode == mode)
            spec = &m;
    BUDDY_CHECK(spec != nullptr, "corrupt BDI mode tag");

    const u64 base_raw = br.get(spec->baseBytes * 8);
    const i64 base = signExtend(base_raw, spec->baseBytes);
    const unsigned elems = kEntryBytes / spec->baseBytes;
    for (unsigned i = 0; i < elems; ++i) {
        const u64 field = br.get(1 + spec->deltaBytes * 8);
        const bool use_base = field & 1;
        const i64 d = signExtend(field >> 1, spec->deltaBytes);
        // Add in u64 (mirror of the encoder's wrapping subtract): only
        // the low baseBytes*8 bits are stored, so the wrap is harmless.
        const i64 val =
            use_base ? static_cast<i64>(static_cast<u64>(base) +
                                        static_cast<u64>(d))
                     : d;
        const u64 enc = static_cast<u64>(val);
        std::memcpy(out + static_cast<std::size_t>(i) * spec->baseBytes,
                    &enc, spec->baseBytes);
    }
}

} // namespace buddy
