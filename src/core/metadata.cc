#include "core/metadata.h"

namespace buddy {

MetadataCache::MetadataCache(const MetadataCacheConfig &cfg) : cfg_(cfg)
{
    BUDDY_CHECK(cfg_.slices > 0 && cfg_.ways > 0 && cfg_.lineBytes > 0,
                "invalid metadata cache config");
    const std::size_t per_slice = cfg_.totalBytes / cfg_.slices;
    setsPerSlice_ =
        static_cast<unsigned>(per_slice / (cfg_.lineBytes * cfg_.ways));
    BUDDY_CHECK(setsPerSlice_ > 0, "metadata cache too small for config");
    sets_ = static_cast<u64>(cfg_.slices) * setsPerSlice_;
    BUDDY_CHECK(sets_ <= 0xffffffffull, "metadata cache has too many sets");
    lines_.resize(static_cast<std::size_t>(sets_) * cfg_.ways);
}

MetadataCache::Line *
MetadataCache::set(unsigned slice, unsigned set_idx)
{
    const std::size_t base =
        (static_cast<std::size_t>(slice) * setsPerSlice_ + set_idx) *
        cfg_.ways;
    return &lines_[base];
}

bool
MetadataCache::access(std::size_t entry_idx)
{
    ++accesses_;
    ++tick_;

    // A repeat of the last access's line: still resident (see the
    // class comment), so a hit without the divide, hash and set scan.
    if (entry_idx - lastFirst_ < entriesPerLine() && lastWay_ != kNoWay) {
        lines_[lastWay_].lru = tick_;
        return true;
    }

    const u64 line_idx = entry_idx / entriesPerLine();
    // Lines interleave across slices with the same *hashed* scheme real
    // memory systems use for channel interleaving (Section 3.2): plain
    // modulo placement lets power-of-two strides (e.g. evenly spaced
    // streaming warps) collapse onto one slice/set and thrash.
    u64 h = line_idx;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    // One 64-bit reduction to the set's global number g = h mod
    // (slices * setsPerSlice); g mod slices and g / slices are exactly
    // h mod slices and (h / slices) mod setsPerSlice, in 32 bits.
    const u32 g = static_cast<u32>(h % sets_);
    const unsigned slice = g % cfg_.slices;
    const unsigned set_idx = g / cfg_.slices;
    const u64 tag = line_idx;

    Line *s = set(slice, set_idx);
    lastFirst_ = line_idx * entriesPerLine();
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (s[w].valid && s[w].tag == tag) {
            s[w].lru = tick_;
            lastWay_ = static_cast<std::size_t>(&s[w] - lines_.data());
            return true;
        }
    }

    // Miss: fill into the LRU way.
    ++misses_;
    Line *victim = &s[0];
    for (unsigned w = 1; w < cfg_.ways; ++w)
        if (!s[w].valid || s[w].lru < victim->lru ||
            (victim->valid && !s[w].valid))
            victim = &s[w];
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick_;
    lastWay_ = static_cast<std::size_t>(victim - lines_.data());
    return false;
}

void
MetadataCache::flush()
{
    for (auto &l : lines_)
        l.valid = false;
    lastWay_ = kNoWay;
}

} // namespace buddy
