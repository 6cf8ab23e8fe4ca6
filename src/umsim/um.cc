#include "umsim/um.h"

#include <algorithm>
#include <list>
#include <unordered_map>

#include "common/check.h"
#include "common/rng.h"

namespace buddy {

namespace {

/** LRU page residency tracker. */
class Residency
{
  public:
    explicit Residency(u64 capacity_pages) : cap_(capacity_pages) {}

    bool resident(u64 page) const { return map_.count(page) != 0; }

    /** Touch a resident page (refresh LRU). */
    void
    touch(u64 page)
    {
        const auto it = map_.find(page);
        BUDDY_CHECK(it != map_.end(), "touch of non-resident page");
        lru_.splice(lru_.begin(), lru_, it->second);
    }

    /** Insert a page, evicting LRU if full. @return true if evicted. */
    bool
    insert(u64 page)
    {
        bool evicted = false;
        if (map_.size() >= cap_) {
            const u64 victim = lru_.back();
            lru_.pop_back();
            map_.erase(victim);
            evicted = true;
        }
        lru_.push_front(page);
        map_[page] = lru_.begin();
        return evicted;
    }

  private:
    u64 cap_;
    std::list<u64> lru_;
    std::unordered_map<u64, std::list<u64>::iterator> map_;
};

} // namespace

UmResult
runUm(const BenchmarkSpec &spec, const UmConfig &cfg, UmMode mode,
      double oversubscription)
{
    UmResult r;
    Rng rng(cfg.seed ^ spec.seed);

    // Footprint exceeds device memory by the oversubscription factor.
    const u64 footprint = static_cast<u64>(
        static_cast<double>(cfg.deviceBytes) * (1.0 + oversubscription));
    const u64 pages = std::max<u64>(1, footprint / cfg.pageBytes);
    const u64 device_pages =
        std::max<u64>(1, cfg.deviceBytes / cfg.pageBytes);

    const double dev_bytes_per_cycle = cfg.deviceGBps / cfg.coreGhz;
    const double link_bytes_per_cycle = cfg.linkGBps / cfg.coreGhz;
    const double fault_cycles = cfg.faultUs * cfg.coreGhz * 1000.0;
    const double page_migrate_cycles =
        static_cast<double>(cfg.pageBytes) / link_bytes_per_cycle;

    Residency res(device_pages);
    const AccessProfile &prof = spec.access;

    // Warm-up: pre-fault the first device-memory's worth of pages so
    // that cold first-touch faults (amortized over a real application's
    // lifetime) do not pollute the steady-state measurement.
    for (u64 p = 0; p < device_pages; ++p)
        res.insert(p % pages);

    // The GPU overlaps compute with memory across many warps: the
    // per-operation cost is the *max* of the (issue-parallel) compute
    // share and the serialized transfer time, plus any fault stall.
    // Eight-wide issue parallelism relative to the single memory pipe.
    const double compute_share = (1.0 + prof.computePerMemory) / 8.0;

    // One streaming cursor per modelled CTA wave; random accesses fall
    // inside the benchmark's hot window, like the performance simulator.
    u64 cursor = 0;
    double cycles = 0;

    for (u64 op = 0; op < cfg.memOps; ++op) {
        // Access 128 B; identify the page.
        u64 entry;
        const double roll = rng.uniform();
        const u64 total_entries = footprint / kEntryBytes;
        if (roll < prof.streamFraction) {
            entry = cursor++ % total_entries;
        } else {
            const u64 window = std::max<u64>(
                1, static_cast<u64>(prof.randomWindow *
                                    static_cast<double>(total_entries)));
            entry = (cursor + rng.below(window)) % total_entries;
        }
        const u64 page = entry * kEntryBytes / cfg.pageBytes;

        switch (mode) {
          case UmMode::Resident:
            cycles += std::max(compute_share,
                               static_cast<double>(kEntryBytes) /
                                   dev_bytes_per_cycle);
            break;

          case UmMode::Pinned:
            // Every access crosses the interconnect; parallelism hides
            // latency, bandwidth does not hide.
            cycles += std::max(compute_share,
                               static_cast<double>(kEntryBytes) /
                                   link_bytes_per_cycle);
            break;

          case UmMode::Migrate:
            if (res.resident(page)) {
                res.touch(page);
                cycles += std::max(compute_share,
                                   static_cast<double>(kEntryBytes) /
                                       dev_bytes_per_cycle);
            } else {
                // Driver fault + whole-page migration; evictions of
                // dirty pages write back over the link as well. GPU
                // faults are remote and serialized in the host driver
                // (Section 3.3), so they stall the stream.
                ++r.faults;
                ++r.migratedPages;
                double cost = fault_cycles + page_migrate_cycles;
                const bool dirty_wb =
                    res.insert(page) && rng.chance(prof.writeFraction);
                if (dirty_wb)
                    cost += page_migrate_cycles; // dirty writeback
                cycles += cost;
                r.faultOverheadFraction += fault_cycles;
            }
            break;
        }
    }

    r.cycles = cycles;
    r.faultOverheadFraction =
        cycles > 0 ? r.faultOverheadFraction / cycles : 0.0;
    return r;
}

} // namespace buddy
