/**
 * @file
 * BackingStore: the storage behind the controller's device memory and
 * buddy carve-out.
 *
 * The functional model needs byte-addressable load/store with capacity;
 * the timing model needs the latency/bandwidth of the link in front of
 * the store. A store therefore holds its bytes and its
 * timing::LinkTiming. Traffic is counted per access in the controller's
 * AccessInfo and BatchSummary, not here. A store keeps no clock: the batch's one timing pass (core/window_pass.h) charges an
 * access's sectors through a window over the store's timing
 * (makeWindow()), a pure function of the traffic.
 *
 * Residency. The paper reserves the buddy carve-out at boot, 3x the
 * size of device memory (Section 3.2), but only the slots allocations
 * reserve ever hold data. A store maps its whole capacity as a private
 * anonymous mapping, which costs address space and no memory, and the
 * controller faults in an allocation's slots when it reserves them
 * (populate()). Resident memory thus follows reserved bytes, not the
 * configured capacity, and the page faults are paid when an allocation
 * is made, not by the accesses that later write into it.
 *
 * There are four kinds, all flat in-process memory differing in what
 * they model and in their default link timing:
 *
 *   "dram"    GPU device memory (HBM2/GDDR class).
 *   "host-um" host memory reachable through unified-memory mappings —
 *             the paper's buddy carve-out placement (Section 3.2).
 *   "remote"  disaggregated/far memory behind a fabric.
 *   "peer"    another GPU's device memory over NVLink peer access; the
 *             sharded engine wires each shard's peer store to a
 *             neighbouring shard (peerOrdinal()).
 *
 * Stores are selected by name through BuddyConfig
 * (deviceBackend/buddyBackend) and created by makeBackingStore(), which
 * fails fast on unknown kinds. The kinds and their default link timings
 * are one fixed table in backing_store.cc.
 */

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "timing/link_model.h"
#include "timing/window.h"

namespace buddy {
namespace api {

/**
 * Byte-addressable storage with a capacity, and the timing of its link
 * (see file header).
 *
 * Every byte of [0, capacity()) reads zero until it is written, whether
 * or not populate() covered it.
 */
class BackingStore final
{
  public:
    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;
    ~BackingStore();

    /** Store kind ("dram", "host-um", "remote", "peer"). */
    const char *kind() const { return kind_; }

    u64 capacity() const { return size_; }

    /**
     * Shard ordinal of the GPU whose memory a "peer" store maps, -1 for
     * every other kind (and for unwired peer stores). A peer store's
     * bytes model a region of the peer GPU reserved for this shard's
     * carve-out, so they are owned here; the sharded engine wires the
     * shards as a ring (shard s spills into shard (s+1) mod N).
     */
    int peerOrdinal() const { return peer_; }

    /**
     * Fault in the pages of [addr, addr + len) without changing their
     * bytes, so later accesses there take no page fault. A zero-length
     * range is a no-op at any @p addr (RegionAllocator's zero-size
     * sentinel base is one past the end). Not traffic: no access is
     * charged for it.
     */
    void populate(Addr addr, u64 len);

    /**
     * Store @p len bytes at @p addr. write() and read() are direct
     * calls, deliberately not inline: inlined into the controller's
     * access path, GCC expands their bounded-length memcpy into
     * `rep movsq`, which is slower than the library memcpy on
     * 32–128 B slots.
     */
    void write(Addr addr, const u8 *src, std::size_t len);

    /** Load @p len bytes from @p addr. */
    void read(Addr addr, u8 *dst, std::size_t len) const;

    /** The latency/bandwidth of this store's link. */
    const timing::LinkTiming &timing() const { return timing_; }

    /**
     * The store's windowed charging mode: an MSHR-style scheduler over
     * this store's link timing that keeps up to @p window round trips
     * in flight (timing/window.h). A window owns private servers; the
     * controller builds its windows once and resets them per batch.
     * window == 1 reproduces the serial charges (RequestWindow::cost)
     * bit-for-bit; 0 or a zero-bandwidth non-free link fail fast.
     */
    timing::RequestWindow
    makeWindow(u64 window) const
    {
        return timing::RequestWindow(timing_, window);
    }

  private:
    friend std::unique_ptr<BackingStore>
    makeBackingStore(const std::string &kind, u64 capacity_bytes,
                     std::optional<timing::LinkTiming> timing,
                     int peer_ordinal);

    BackingStore(const char *kind, u64 capacity_bytes,
                 const timing::LinkTiming &timing, int peer_ordinal);

    const char *kind_;
    timing::LinkTiming timing_;
    int peer_;
    u64 size_;
    u8 *data_; ///< private anonymous mapping of max(size_, 1) bytes
};

/**
 * Create a backing store of @p kind with @p capacity bytes. @p timing
 * overrides the kind's default link timing (the kKinds table in
 * backing_store.cc); @p peer_ordinal names the peer shard a "peer"
 * store maps (ignored by other kinds). Unknown kinds are a fatal
 * configuration error naming the known kinds.
 */
std::unique_ptr<BackingStore>
makeBackingStore(const std::string &kind, u64 capacity_bytes,
                 std::optional<timing::LinkTiming> timing = {},
                 int peer_ordinal = -1);

/** All backing-store kinds makeBackingStore() accepts. */
std::vector<std::string> backingStoreKinds();

} // namespace api

using api::BackingStore;
using api::makeBackingStore;

} // namespace buddy
