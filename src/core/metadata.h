/**
 * @file
 * Compression metadata storage and the sliced metadata cache
 * (paper Section 3.2, Figure 5).
 *
 * Every 128 B memory entry owns 4 bits of metadata recording how many
 * sectors its compressed form actually occupies (plus a zero-entry and a
 * raw-fallback encoding). The metadata lives in a dedicated dense region
 * of device memory (0.4% overhead) and is cached by a set-associative
 * metadata cache that is sliced across the DRAM channels. One cache line
 * is 32 B and therefore covers 64 neighbouring entries, so a miss
 * prefetches the metadata of 63 neighbours.
 *
 * The model keeps each entry's nibble in an EntryRecord, next to the
 * payload's exact bit length; every allocation owns a dense array of
 * them (core/controller.h). The cache is indexed by virtual address /
 * 128 and only models which lines are resident.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/types.h"

namespace buddy {

/**
 * 4-bit per-entry metadata encoding.
 *
 * Values 0..4 give the compressed sector count (0 = fully-zero entry whose
 * payload fits in the metadata path / the 8 B mostly-zero slot). Value 5
 * tags the raw fallback (entry stored uncompressed; with a 1x target this
 * is indistinguishable from 4 sectors but the tag spares a decompression).
 */
enum class EntryMeta : u8 {
    Zero = 0,
    Sectors1 = 1,
    Sectors2 = 2,
    Sectors3 = 3,
    Sectors4 = 4,
    Raw = 5,
};

/** Sector count implied by a metadata nibble. */
inline unsigned
metaSectors(EntryMeta m)
{
    return m == EntryMeta::Raw ? 4u : static_cast<unsigned>(m);
}

/**
 * One memory entry's model state (4 B): the exact bit length of its
 * stored payload and its metadata nibble. A Zero entry stores 0 bits
 * and a Raw one kEntryBytes * 8, so the stored byte count — and with
 * the allocation's device slot, the Figure 4 device/buddy split — is
 * derived from the record alone.
 */
struct EntryRecord
{
    u16 bits = 0;
    EntryMeta meta = EntryMeta::Zero;

    /** Payload bytes stored across the device and buddy slots. */
    u64 storedBytes() const { return (bits + 7u) / 8u; }

    /** True if the payload spills past a @p slot_bytes device slot. */
    bool
    overflows(u64 slot_bytes) const
    {
        return storedBytes() > slot_bytes;
    }
};

/** Configuration of the sliced set-associative metadata cache. */
struct MetadataCacheConfig
{
    /** Total capacity across all slices in bytes (default 4 KB x 8). */
    std::size_t totalBytes = 64 * KiB;

    /** Associativity (paper: 4-way). */
    unsigned ways = 4;

    /** Number of slices, one per DRAM channel group (paper: 8 or 32). */
    unsigned slices = 8;

    /** Cache line size in bytes (paper: 32 B entries; Table 2: 128 B). */
    std::size_t lineBytes = 32;
};

/**
 * Sliced, set-associative, LRU metadata cache.
 *
 * Tracks hits and misses per lookup; a miss models one extra device-memory
 * access (the metadata line fill). Writes to metadata are write-back:
 * they allocate like reads and dirty the line (the writeback traffic is
 * folded into the same line-sized transfer accounting).
 */
class MetadataCache
{
  public:
    explicit MetadataCache(const MetadataCacheConfig &cfg);

    /**
     * Look up the metadata line covering @p entry_idx, filling on miss.
     * @return true on hit.
     */
    bool access(std::size_t entry_idx);

    /** Invalidate all lines and reset no statistics. */
    void flush();

    /** Hit-rate statistics since construction. */
    RatioStat
    hitRate() const
    {
        RatioStat r;
        r.add(static_cast<double>(accesses_ - misses_),
              static_cast<double>(accesses_));
        return r;
    }

    u64 accesses() const { return accesses_; }
    u64 misses() const { return misses_; }

    /** Memory entries covered by one cache line. */
    std::size_t
    entriesPerLine() const
    {
        return cfg_.lineBytes * 8 / kMetadataBitsPerEntry;
    }

    const MetadataCacheConfig &config() const { return cfg_; }

  private:
    struct Line
    {
        u64 tag = ~0ull;
        u64 lru = 0;
        bool valid = false;
    };

    MetadataCacheConfig cfg_;
    unsigned setsPerSlice_;
    u64 sets_; ///< slices * setsPerSlice_
    std::vector<Line> lines_; // [slice][set][way] flattened
    u64 tick_ = 0;
    u64 accesses_ = 0;
    u64 misses_ = 0;

    Line *set(unsigned slice, unsigned set_idx);
};

} // namespace buddy
