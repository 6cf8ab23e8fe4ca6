/**
 * @file
 * Compressed allocation descriptors (paper Section 3.2).
 *
 * A Buddy Compression allocation is created through an annotated
 * cudaMalloc with a target compression ratio. Only size/ratio of the data
 * is reserved in device memory; the remaining sectors of every entry have
 * a fixed, pre-allocated slot in the buddy-memory carve-out. The page
 * table is extended with 24 bits per page: a compressed flag, the target
 * ratio, and the buddy-page offset from the Global Buddy Base-address
 * Register (GBBR). Every page of an allocation shares those fields, so
 * the model keeps them once, in the Allocation.
 */

#pragma once

#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "compress/sector.h"
#include "core/metadata.h"

namespace buddy {

/** One annotated cudaMalloc region. */
struct Allocation
{
    /** Debug name ("weights", "activations", ...). */
    std::string name;

    /** Virtual base address (128 B aligned). */
    Addr va = 0;

    /** Logical (uncompressed) size in bytes, multiple of kEntryBytes. */
    u64 bytes = 0;

    /** Target compression ratio chosen at allocation time. */
    CompressionTarget target = CompressionTarget::None;

    /** Byte offset of the allocation's device region. */
    Addr deviceOffset = 0;

    /** Byte offset of the allocation's buddy region within the carve-out. */
    Addr buddyOffset = 0;

    /** One EntryRecord per entry, indexed by the entry's index in the
     *  allocation (the paper's dense metadata region). */
    std::vector<EntryRecord> records;

    u64 entryCount() const { return bytes / kEntryBytes; }

    /** Device footprint of the whole allocation. */
    u64
    deviceBytes() const
    {
        return entryCount() * deviceBytesPerEntry(target);
    }

    /** Buddy-carve-out footprint of the whole allocation. */
    u64
    buddyBytes() const
    {
        return entryCount() * (kEntryBytes - deviceBytesPerEntry(target));
    }

    /** True if @p addr falls inside this allocation. */
    bool
    contains(Addr addr) const
    {
        return addr >= va && addr < va + bytes;
    }
};

/**
 * The allocation in @p allocs, a map keyed by base address, that holds
 * @p va (panics if none).
 */
template <typename AllocMap>
auto &
allocationHolding(AllocMap &allocs, Addr va)
{
    auto it = allocs.upper_bound(va);
    BUDDY_CHECK(it != allocs.begin(), "address below all allocations");
    --it;
    BUDDY_CHECK(it->second.contains(va), "address not inside any allocation");
    return it->second;
}

} // namespace buddy
