/**
 * @file
 * BackingStore: the pluggable storage interface behind the controller's
 * device memory and buddy carve-out.
 *
 * The functional model needs byte-addressable load/store with capacity
 * and traffic accounting; the timing model needs the latency/bandwidth
 * of the link in front of the store. The base class therefore owns the
 * traffic counters and the store's timing::LinkTiming: concrete stores
 * implement only the raw byte movement (doWrite/doRead) while the
 * non-virtual public calls account the operation. A store keeps no
 * clock: the batch's one timing pass (core/window_pass.h) charges an
 * access's sectors through a window over the store's timing
 * (makeWindow()), a pure function of the traffic.
 *
 * Four kinds ship in-tree, all flat in-process memory differing in what
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
 * fails fast on unknown kinds. Future backends (CXL pools, GPUDirect
 * NVMe) plug in the same way without touching the controller.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "timing/link_model.h"
#include "timing/window.h"

namespace buddy {
namespace api {

/**
 * Byte-addressable storage with capacity and traffic accounting, and
 * the timing of its link (see file header).
 */
class BackingStore
{
  public:
    BackingStore(const char *kind, const timing::LinkTiming &timing)
        : kind_(kind), timing_(timing)
    {}

    virtual ~BackingStore() = default;

    /** Store kind ("dram", "host-um", "remote", "peer", ...). */
    const char *kind() const { return kind_; }

    virtual u64 capacity() const = 0;

    /**
     * Shard ordinal of the GPU whose memory a "peer" store maps, -1 for
     * every other kind (and for unwired peer stores).
     */
    virtual int peerOrdinal() const { return -1; }

    /** Store @p len bytes at @p addr. */
    void
    write(Addr addr, const u8 *src, std::size_t len)
    {
        doWrite(addr, src, len);
        written_ += len;
        ++writeOps_;
    }

    /** Load @p len bytes from @p addr. */
    void
    read(Addr addr, u8 *dst, std::size_t len) const
    {
        doRead(addr, dst, len);
        read_ += len;
        ++readOps_;
    }

    /** Total bytes written / read since construction. */
    u64 bytesWritten() const { return written_; }
    u64 bytesRead() const { return read_; }

    /** Number of write() and read() calls since construction. */
    u64 writeOps() const { return writeOps_; }
    u64 readOps() const { return readOps_; }

    /**
     * Access round trips the timing model charges. One per operation
     * for every in-process kind; only "remote" and "peer" cross a
     * fabric, so only there does the count dominate the cycle total.
     */
    u64 roundTrips() const { return writeOps_ + readOps_; }

    /** The latency/bandwidth of this store's link. */
    const timing::LinkTiming &timing() const { return timing_; }

    /**
     * The store's windowed charging mode: an MSHR-style scheduler over
     * this store's link timing that keeps up to @p window round trips
     * in flight (timing/window.h). Windows are created per request
     * stream (one per batch in the controller) and own private
     * servers. window == 1 reproduces the serial charges
     * (RequestWindow::cost) bit-for-bit; 0 or a zero-bandwidth non-free
     * link fail fast.
     */
    timing::RequestWindow
    makeWindow(u64 window) const
    {
        return timing::RequestWindow(timing_, window);
    }

  protected:
    virtual void doWrite(Addr addr, const u8 *src, std::size_t len) = 0;
    virtual void doRead(Addr addr, u8 *dst, std::size_t len) const = 0;

  private:
    const char *kind_;
    timing::LinkTiming timing_;
    u64 written_ = 0;
    mutable u64 read_ = 0;
    u64 writeOps_ = 0;
    mutable u64 readOps_ = 0;
};

/**
 * Create a backing store of @p kind with @p capacity bytes and the
 * kind's default link timing (timing::defaultLinkTiming).
 * Unknown kinds are a fatal configuration error naming the known kinds.
 */
std::unique_ptr<BackingStore> makeBackingStore(const std::string &kind,
                                               u64 capacity_bytes);

/**
 * Create a backing store with explicit link timing. @p peer_ordinal
 * names the peer shard a "peer" store maps (ignored by other kinds).
 */
std::unique_ptr<BackingStore>
makeBackingStore(const std::string &kind, u64 capacity_bytes,
                 const timing::LinkTiming &timing, int peer_ordinal = -1);

/** All backing-store kinds makeBackingStore() accepts. */
std::vector<std::string> backingStoreKinds();

} // namespace api

using api::BackingStore;
using api::makeBackingStore;

} // namespace buddy
