/**
 * @file
 * ReferenceMetadataCache: the metadata cache's placement and
 * replacement, written apart from core/metadata.cc so that tests can
 * check the cache, and the controller's per-op metadataHit, against it
 * hit for hit.
 */

#pragma once

#include <cstddef>
#include <map>
#include <utility>

#include "core/metadata.h"

namespace buddy {
namespace testutil {

/**
 * A line's slice is hash(line) mod slices, its set within the slice is
 * (hash(line) / slices) mod setsPerSlice, and each set holds up to
 * `ways` lines, evicting the least recently used. Copyable: a copy
 * continues on its own.
 */
class ReferenceMetadataCache
{
  public:
    explicit ReferenceMetadataCache(const MetadataCacheConfig &cfg)
        : cfg_(cfg),
          setsPerSlice_(cfg.totalBytes / cfg.slices /
                        (cfg.lineBytes * cfg.ways))
    {}

    /** Entries one line covers (4 bits of metadata each). */
    u64
    entriesPerLine() const
    {
        return cfg_.lineBytes * 8 / kMetadataBitsPerEntry;
    }

    /** The (slice, set) that @p line is placed in. */
    std::pair<u64, u64>
    placement(u64 line) const
    {
        u64 h = line;
        h ^= h >> 30;
        h *= 0xbf58476d1ce4e5b9ull;
        h ^= h >> 27;
        h *= 0x94d049bb133111ebull;
        h ^= h >> 31;
        return {h % cfg_.slices, (h / cfg_.slices) % setsPerSlice_};
    }

    /** Look up the line covering @p entry_idx, filling on a miss.
     *  @return true on hit. */
    bool
    access(std::size_t entry_idx)
    {
        ++tick_;
        const u64 line = entry_idx / entriesPerLine();
        std::map<u64, u64> &lines = sets_[placement(line)]; // tag -> use
        const auto it = lines.find(line);
        if (it != lines.end()) {
            it->second = tick_;
            return true;
        }
        if (lines.size() == cfg_.ways) {
            auto lru = lines.begin();
            for (auto l = lines.begin(); l != lines.end(); ++l)
                if (l->second < lru->second)
                    lru = l;
            lines.erase(lru);
        }
        lines[line] = tick_;
        return false;
    }

    /** Drop every line. */
    void flush() { sets_.clear(); }

  private:
    MetadataCacheConfig cfg_;
    u64 setsPerSlice_;
    std::map<std::pair<u64, u64>, std::map<u64, u64>> sets_;
    u64 tick_ = 0;
};

} // namespace testutil
} // namespace buddy
