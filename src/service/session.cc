#include "service/session.h"

#include <cmath>

#include "common/check.h"
#include "engine/engine.h"
#include "workloads/patterns.h"

namespace buddy {
namespace service {

TenantSession::TenantSession(std::string name,
                             const engine::TraceReplayer &trace,
                             engine::ShardedEngine &engine, unsigned repeat)
    : name_(std::move(name)),
      cursor_(std::make_unique<engine::TraceCursor>(trace, engine, repeat,
                                                    name_ + "/"))
{}

TenantSession::TenantSession(std::string name,
                             engine::ShardedEngine &engine, u64 seed,
                             std::size_t entries, u64 batchCount)
    : name_(std::move(name)), batchCount_(batchCount)
{
    BUDDY_CHECK(entries > 0, "synthetic session needs entries");
    const auto base = engine.allocate(name_ + "/set", entries * kEntryBytes,
                                      CompressionTarget::Ratio2);
    BUDDY_CHECK(base.has_value(), "synthetic session out of engine memory");
    vas_.reserve(entries);
    for (std::size_t i = 0; i < entries; ++i)
        vas_.push_back(*base + i * kEntryBytes);

    data_.resize(entries * kEntryBytes);
    Rng rng(seed);
    for (std::size_t i = 0; i < entries; ++i)
        fillBucketEntry(rng, static_cast<unsigned>(i % kPatternBuckets),
                        data_.data() + i * kEntryBytes);
}

void
TenantSession::setArrivals(const ArrivalSpec &spec)
{
    const u64 total = totalBatches();
    arrivals_.clear();
    arrivals_.reserve(static_cast<std::size_t>(total));
    switch (spec.kind) {
    case ArrivalKind::Closed:
        return; // empty arrivals_ = every batch ready at cycle 0
    case ArrivalKind::Poisson: {
        BUDDY_CHECK(spec.meanGapCycles > 0,
                    "Poisson arrivals need a nonzero mean gap");
        // Exponential gaps via inverse transform on the fixed-seed
        // stream; the rounded integer gap is a pure function of the
        // seed, so the arrival times reproduce bit-for-bit.
        Rng rng(spec.seed);
        u64 t = 0;
        for (u64 k = 0; k < total; ++k) {
            const double u = rng.uniform(); // in [0, 1)
            t += static_cast<u64>(-static_cast<double>(spec.meanGapCycles) *
                                  std::log1p(-u));
            arrivals_.push_back(t);
        }
        return;
    }
    case ArrivalKind::Bursty:
        BUDDY_CHECK(spec.burstSize >= 1, "bursts need at least one batch");
        for (u64 k = 0; k < total; ++k)
            arrivals_.push_back((k / spec.burstSize) *
                                spec.burstGapCycles);
        return;
    case ArrivalKind::Explicit:
        BUDDY_CHECK(spec.stamps.size() >= total,
                    "explicit arrival stamps must cover the whole stream");
        for (u64 k = 0; k < total; ++k) {
            const u64 t = spec.stamps[static_cast<std::size_t>(k)];
            BUDDY_CHECK(k == 0 || t >= arrivals_.back(),
                        "arrival stamps must be non-decreasing");
            arrivals_.push_back(t);
        }
        return;
    }
    BUDDY_PANIC("unreachable arrival kind");
}

bool
TenantSession::next(AccessBatch &plan, std::vector<u8> &readBuf)
{
    if (cursor_)
        return cursor_->next(plan, readBuf);

    plan.clear();
    if (built_ >= batchCount_)
        return false;
    const bool write_pass = (built_ % 2) == 0;
    ++built_;
    if (write_pass) {
        for (std::size_t i = 0; i < vas_.size(); ++i)
            plan.write(vas_[i], data_.data() + i * kEntryBytes);
    } else {
        readBuf.resize(vas_.size() * kEntryBytes);
        for (std::size_t i = 0; i < vas_.size(); ++i)
            plan.read(vas_[i], readBuf.data() + i * kEntryBytes);
    }
    return true;
}

} // namespace service
} // namespace buddy
