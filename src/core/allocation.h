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

#include "common/types.h"
#include "compress/sector.h"

namespace buddy {

/** Identifier of one compressed allocation. */
using AllocId = u32;

/** One annotated cudaMalloc region. */
struct Allocation
{
    AllocId id = 0;

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

} // namespace buddy
