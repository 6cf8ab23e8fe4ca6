#include "api/backing_store.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "common/log.h"

namespace buddy {
namespace api {

namespace {

/** Granule populate() touches: the base page size of every host the
 *  simulator targets (with larger pages, the extra touches are hits). */
constexpr u64 kFaultBytes = 4 * KiB;

/** One kind makeBackingStore() accepts, with its default link timing. */
struct Kind
{
    const char *name;
    timing::LinkTiming timing;
};

/**
 * Every kind makeBackingStore() accepts; a store keeps its kind as a
 * pointer into this table. Default timings are a calibration sketch at
 * 1.3 GHz (paper Table 2 class hardware): HBM2 ~900 GB/s ≈ 650 B/cycle;
 * NVLink2 to the host ~75 GB/s per direction ≈ 57 B/cycle shared with
 * UM traffic; NVLink peer ~150 GB/s ≈ 115 B/cycle; a disaggregation
 * fabric is assumed to deliver a quarter of the host path at
 * several-microsecond RTT.
 */
constexpr Kind kKinds[] = {
    {"dram", {4, 512, 512}},
    {"host-um", {600, 32, 32}},
    {"remote", {1200, 16, 16}},
    {"peer", {400, 64, 64}},
};

} // namespace

/**
 * The bytes are a private anonymous mapping, not heap memory: its pages
 * are zero, are made resident only when first touched, and go back to
 * the kernel in the destructor, so no later store is handed recycled
 * (and cleared) memory. MAP_NORESERVE: the capacity is address space,
 * not a commitment; only populated and written pages are backed.
 */
BackingStore::BackingStore(const char *kind, u64 capacity_bytes,
                           const timing::LinkTiming &timing,
                           int peer_ordinal)
    : kind_(kind), timing_(timing), peer_(peer_ordinal),
      size_(capacity_bytes)
{
    void *p = ::mmap(nullptr, std::max<u64>(size_, 1),
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    BUDDY_CHECK(p != MAP_FAILED, "backing-store mapping failed");
    data_ = static_cast<u8 *>(p);
}

BackingStore::~BackingStore()
{
    ::munmap(data_, std::max<u64>(size_, 1));
}

void
BackingStore::populate(Addr addr, u64 len)
{
    if (len == 0)
        return;
    BUDDY_CHECK(addr + len <= size_, "backing-store populate out of range");
    // One write per page: an atomic add of zero is a single write fault
    // on an untouched page (a plain read-then-write would fault twice,
    // first mapping the shared zero page) and leaves written bytes as
    // they are.
    const u64 first = addr / kFaultBytes * kFaultBytes;
    for (u64 page = first; page < addr + len; page += kFaultBytes) {
        u8 *const byte = data_ + std::max<u64>(page, addr);
        __atomic_fetch_add(byte, static_cast<u8>(0), __ATOMIC_RELAXED);
    }
}

void
BackingStore::write(Addr addr, const u8 *src, std::size_t len)
{
    BUDDY_CHECK(addr + len <= size_, "backing-store write out of range");
    std::memcpy(data_ + addr, src, len);
}

void
BackingStore::read(Addr addr, u8 *dst, std::size_t len) const
{
    BUDDY_CHECK(addr + len <= size_, "backing-store read out of range");
    std::memcpy(dst, data_ + addr, len);
}

std::unique_ptr<BackingStore>
makeBackingStore(const std::string &kind, u64 capacity_bytes,
                 std::optional<timing::LinkTiming> timing, int peer_ordinal)
{
    for (const Kind &k : kKinds)
        if (kind == k.name)
            return std::unique_ptr<BackingStore>(new BackingStore(
                k.name, capacity_bytes, timing.value_or(k.timing),
                kind == "peer" ? peer_ordinal : -1));

    std::string known;
    for (const std::string &k : backingStoreKinds())
        known += known.empty() ? k : ", " + k;
    std::fprintf(stderr,
                 "unknown backing store \"%s\"; known kinds: %s\n",
                 kind.c_str(), known.c_str());
    BUDDY_FATAL("unknown backing-store kind");
}

std::vector<std::string>
backingStoreKinds()
{
    std::vector<std::string> out;
    for (const Kind &k : kKinds)
        out.emplace_back(k.name);
    return out;
}

} // namespace api
} // namespace buddy
