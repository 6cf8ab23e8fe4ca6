/**
 * @file
 * Functional backing stores: GPU device memory and the buddy-memory
 * carve-out region.
 *
 * Both are api::BackingStores, selected by name through BuddyConfig
 * (deviceBackend / buddyBackend). The buddy carve-out is a physically
 * contiguous region of the host/disaggregated memory that is reserved
 * at boot and addressed as GBBR + offset (Section 3.2), which makes
 * buddy translation a single add. Reserving it costs address space
 * only: a slot's pages become resident when an allocation reserves the
 * slot (BackingStore::populate()).
 */

#pragma once

#include <memory>
#include <optional>
#include <string>

#include "api/backing_store.h"
#include "common/types.h"
#include "timing/link_model.h"

namespace buddy {

/**
 * The buddy-memory carve-out: a contiguous remote region sized as a
 * multiple of device memory (3x for a 4x maximum target ratio). All
 * buddy addressing is offset-based (the GBBR base add is not modelled,
 * since nothing reads host-physical addresses). The storage
 * itself is a BackingStore ("host-um" by default, "remote" for
 * disaggregated placements), whose pages are resident only where
 * allocations have reserved buddy slots (populate()).
 */
class BuddyCarveOut
{
  public:
    /**
     * @param device_bytes GPU device memory capacity.
     * @param ratio carve-out size as a multiple of device memory
     *        (paper default: 3x, supporting a 4x max target).
     * @param backend backing-store kind (see api/backing_store.h).
     * @param timing link timing override; the backend kind's default
     *        when unset (see makeBackingStore()).
     * @param peer_ordinal peer shard a "peer" backend maps.
     */
    BuddyCarveOut(u64 device_bytes, unsigned ratio = 3,
                  const std::string &backend = "host-um",
                  const std::optional<timing::LinkTiming> &timing =
                      std::nullopt,
                  int peer_ordinal = -1)
        : mem_(makeBackingStore(backend, device_bytes * ratio, timing,
                                peer_ordinal))
    {}

    u64 capacity() const { return mem_->capacity(); }

    void
    write(Addr offset, const u8 *src, std::size_t len)
    {
        mem_->write(offset, src, len);
    }

    void
    read(Addr offset, u8 *dst, std::size_t len) const
    {
        mem_->read(offset, dst, len);
    }

    /** Fault in the slots at [offset, offset + len) (a no-op when len
     *  is 0); see BackingStore::populate(). */
    void populate(Addr offset, u64 len) { mem_->populate(offset, len); }

    /** The underlying store (kind, traffic accounting, link timing). */
    const BackingStore &store() const { return *mem_; }

  private:
    std::unique_ptr<BackingStore> mem_;
};

} // namespace buddy
