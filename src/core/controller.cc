#include "core/controller.h"

#include <cstring>

#include "api/codec_registry.h"
#include "common/check.h"
#include "core/window_pass.h"

namespace buddy {

namespace {

/** Sectors needed to transfer @p bytes (32 B granularity). */
unsigned
sectorsFor(u64 bytes)
{
    return static_cast<unsigned>((bytes + kSectorBytes - 1) / kSectorBytes);
}

} // namespace

BuddyController::BuddyController(const BuddyConfig &cfg)
    : cfg_(cfg),
      // CodecRegistry::create and makeBackingStore fail fast on unknown
      // names (listing what is registered), so a misconfigured codec or
      // backend is caught here instead of at the first access.
      codec_(api::CodecRegistry::instance().create(cfg.codec)),
      // create() above fails fast on unknown names, so find() is
      // non-null here: the resolved timing is the config override or the
      // codec's registered inline-unit estimate.
      codecTiming_(cfg.codecTiming
                       ? *cfg.codecTiming
                       : api::CodecRegistry::instance().find(cfg.codec)
                             ->timing),
      device_(makeBackingStore(
          cfg.deviceBackend, cfg.deviceBytes,
          cfg.deviceLink ? *cfg.deviceLink
                         : timing::defaultLinkTiming(cfg.deviceBackend))),
      buddy_(cfg.deviceBytes, cfg.carveOutRatio, cfg.buddyBackend,
             cfg.buddyLink, cfg.buddyPeerOrdinal),
      deviceAlloc_(cfg.deviceBytes),
      buddyAlloc_(buddy_.capacity())
{
    // Windowed-replay configuration errors (a 0 window, or a windowed
    // replay over a zero-bandwidth link) are caught here rather than at
    // the first executed batch.
    timing::validateWindowedTiming(device_->timing(), cfg.linkWindow,
                                   "BuddyConfig deviceLink/linkWindow");
    timing::validateWindowedTiming(buddy_.store().timing(),
                                   cfg.linkWindow,
                                   "BuddyConfig buddyLink/linkWindow");

    // The architectural metadata region must cover the largest logical
    // footprint: device memory fully expanded at the maximum 4x ratio.
    const std::size_t covered =
        cfg.deviceBytes * 4 / kEntryBytes;
    metaStore_ = std::make_unique<MetadataStore>(covered);
    metaCache_ = std::make_unique<MetadataCache>(cfg.metadataCache);
}

BuddyController::~BuddyController() = default;

std::optional<AllocId>
BuddyController::allocate(const std::string &name, u64 bytes,
                          CompressionTarget target)
{
    // Round the logical size up to whole pages (annotation granularity).
    const u64 rounded = (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
    const u64 entries = rounded / kEntryBytes;
    const u64 slot = deviceBytesPerEntry(target);
    const u64 dev_bytes = entries * slot;
    const u64 bud_bytes = entries * (kEntryBytes - slot);

    const auto dev_off = deviceAlloc_.allocate(dev_bytes);
    if (!dev_off)
        return std::nullopt;
    const auto bud_off = buddyAlloc_.allocate(bud_bytes);
    if (!bud_off) {
        deviceAlloc_.release(*dev_off);
        return std::nullopt;
    }

    Allocation a;
    a.id = nextId_++;
    a.name = name;
    a.va = nextVa_;
    a.bytes = rounded;
    a.target = target;
    a.deviceOffset = *dev_off;
    a.buddyOffset = *bud_off;
    nextVa_ += rounded;

    deviceUsed_ += dev_bytes;
    buddyUsed_ += bud_bytes;
    logicalUsed_ += rounded;
    byVa_[a.va] = a.id;
    allocs_[a.id] = a;
    return a.id;
}

void
BuddyController::free(AllocId id)
{
    const auto it = allocs_.find(id);
    BUDDY_CHECK(it != allocs_.end(), "free of unknown allocation");
    const Allocation &a = it->second;

    // Drop per-entry state and metadata.
    const u64 first = a.va / kEntryBytes;
    for (u64 e = 0; e < a.entryCount(); ++e) {
        const auto st = entryState_.find(first + e);
        if (st != entryState_.end()) {
            if (st->second.overflow)
                --overflowEntries_;
            entryState_.erase(st);
        }
        metaStore_->set(first + e, EntryMeta::Zero);
    }

    deviceAlloc_.release(a.deviceOffset);
    buddyAlloc_.release(a.buddyOffset);
    deviceUsed_ -= a.deviceBytes();
    buddyUsed_ -= a.buddyBytes();
    logicalUsed_ -= a.bytes;
    byVa_.erase(a.va);
    allocs_.erase(it);
}

const Allocation &
BuddyController::allocationFor(Addr va) const
{
    auto it = byVa_.upper_bound(va);
    BUDDY_CHECK(it != byVa_.begin(), "address below all allocations");
    --it;
    const Allocation &a = allocs_.at(it->second);
    BUDDY_CHECK(a.contains(va), "address not inside any allocation");
    return a;
}

BuddyController::EntryLoc
BuddyController::locate(Addr va) const
{
    BUDDY_CHECK(va % kEntryBytes == 0, "entry address must be 128B aligned");
    const Allocation &a = allocationFor(va);
    EntryLoc loc;
    loc.alloc = &a;
    loc.entryIdx = (va - a.va) / kEntryBytes;
    loc.globalEntryIdx = va / kEntryBytes;
    loc.deviceSlotBytes = deviceBytesPerEntry(a.target);
    loc.deviceAddr = a.deviceOffset + loc.entryIdx * loc.deviceSlotBytes;
    loc.buddyOffset =
        a.buddyOffset + loc.entryIdx * (kEntryBytes - loc.deviceSlotBytes);
    return loc;
}

AccessInfo
BuddyController::trafficFor(const EntryLoc &loc, EntryMeta meta,
                            u32 payload_bits) const
{
    AccessInfo info;
    if (meta == EntryMeta::Zero) {
        // Fully described by metadata: no data sectors move.
        return info;
    }

    u64 stored;
    if (meta == EntryMeta::Raw) {
        stored = kEntryBytes; // raw data, tag carried by metadata
    } else {
        stored = (payload_bits + 7) / 8;
    }
    const u64 on_device = std::min<u64>(stored, loc.deviceSlotBytes);
    const u64 on_buddy = stored - on_device;
    info.deviceSectors = sectorsFor(on_device);
    info.buddySectors = sectorsFor(on_buddy);
    return info;
}

void
BuddyController::attachMetrics(obs::MetricRegistry &registry,
                               const std::string &prefix)
{
    attachProbes(registry, prefix, true);
}

void
BuddyController::attachProbes(obs::MetricRegistry &registry,
                              const std::string &prefix, bool timed)
{
    probes_.active = true;
    probes_.batches = &registry.counter(prefix + "batches");
    probes_.reads = &registry.counter(prefix + "reads");
    probes_.writes = &registry.counter(prefix + "writes");
    probes_.probes = &registry.counter(prefix + "probes");
    probes_.writesZero = &registry.counter(prefix + "writes_zero");
    probes_.writesCompressed =
        &registry.counter(prefix + "writes_compressed");
    probes_.writesRaw = &registry.counter(prefix + "writes_raw");
    probes_.metadataHits = &registry.counter(prefix + "metadata_hits");
    probes_.metadataMisses = &registry.counter(prefix + "metadata_misses");
    probes_.buddyAccesses = &registry.counter(prefix + "buddy_accesses");
    probes_.storedBits = &registry.histogram(prefix + "stored_bits");
    if (!timed)
        return;
    probes_.batchMakespan =
        &registry.histogram(prefix + "batch_combined_makespan");
    probes_.windowOccupancy =
        &registry.histogram(prefix + "window_occupancy");
    probes_.windowStall = &registry.histogram(prefix + "window_stall");
}

timing::WindowGroup
BuddyController::makeWindows() const
{
    return timing::WindowGroup(device_->makeWindow(cfg_.linkWindow),
                               buddy_.store().makeWindow(cfg_.linkWindow),
                               codecTiming_);
}

AccessInfo
BuddyController::executeOp(const AccessRequest &op, BatchSummary &summary)
{
    const EntryLoc loc = locate(op.va);
    const bool meta_hit = metaCache_->access(loc.globalEntryIdx);

    AccessInfo info;
    u32 stored_bits = 0;
    bool is_zero = false;
    // Whether this op runs the inline unit: writes of non-zero entries
    // compress (even when the result is stored Raw — the unit still ran
    // to discover that); reads and probes of Compressed entries
    // decompress. Zero entries and Raw reads bypass the unit entirely.
    bool codec_pass = false;

    switch (op.kind) {
      case AccessKind::Write: {
        BUDDY_CHECK(op.src != nullptr, "write op needs a payload");
        const u8 *data = op.src;

        EntryMeta meta;
        std::size_t comp_bits = 0;
        if (entryIsZero(data)) {
            meta = EntryMeta::Zero;
            is_zero = true;
        } else {
            codec_pass = true;
            comp_bits =
                codec_->compressInto(data, scratch_.encode, scratch_);
            if (comp_bits > kEntryBytes * 8) {
                meta = EntryMeta::Raw;
            } else {
                meta = static_cast<EntryMeta>(compressedSectors(comp_bits));
            }
        }

        // Store the payload split across the device slot and the entry's
        // fixed buddy slot.
        if (meta == EntryMeta::Raw) {
            const u64 on_dev =
                std::min<u64>(kEntryBytes, loc.deviceSlotBytes);
            device_->write(loc.deviceAddr, data, on_dev);
            if (on_dev < kEntryBytes)
                buddy_.write(loc.buddyOffset, data + on_dev,
                             kEntryBytes - on_dev);
            stored_bits = kEntryBytes * 8;
        } else if (meta != EntryMeta::Zero) {
            const u64 bytes = (comp_bits + 7) / 8;
            const u64 on_dev = std::min<u64>(bytes, loc.deviceSlotBytes);
            device_->write(loc.deviceAddr, scratch_.encode, on_dev);
            if (on_dev < bytes)
                buddy_.write(loc.buddyOffset, scratch_.encode + on_dev,
                             bytes - on_dev);
            stored_bits = static_cast<u32>(comp_bits);
        }

        metaStore_->set(loc.globalEntryIdx, meta);

        info = trafficFor(loc, meta, stored_bits);
        info.metadataHit = meta_hit;

        // Track the overflow population (overflowEntries()).
        auto &st = entryState_[loc.globalEntryIdx];
        const bool now_overflow = info.buddySectors > 0;
        if (st.overflow != now_overflow) {
            if (now_overflow)
                ++overflowEntries_;
            else
                --overflowEntries_;
            st.overflow = now_overflow;
        }
        st.bits = stored_bits;

        ++summary.writes;
        if (probes_.active) {
            if (meta == EntryMeta::Zero)
                probes_.writesZero->add();
            else if (meta == EntryMeta::Raw)
                probes_.writesRaw->add();
            else
                probes_.writesCompressed->add();
            probes_.storedBits->add(stored_bits);
        }
        break;
      }

      case AccessKind::Read: {
        BUDDY_CHECK(op.dst != nullptr, "read op needs a destination");
        u8 *out = op.dst;

        const EntryMeta meta = metaStore_->get(loc.globalEntryIdx);
        const auto stit = entryState_.find(loc.globalEntryIdx);
        const u32 bits = stit == entryState_.end() ? 0 : stit->second.bits;
        stored_bits = bits;
        is_zero = meta == EntryMeta::Zero;

        info = trafficFor(loc, meta, bits);
        info.metadataHit = meta_hit;

        if (meta == EntryMeta::Zero) {
            std::memset(out, 0, kEntryBytes);
        } else if (meta == EntryMeta::Raw) {
            const u64 on_dev =
                std::min<u64>(kEntryBytes, loc.deviceSlotBytes);
            device_->read(loc.deviceAddr, out, on_dev);
            if (on_dev < kEntryBytes)
                buddy_.read(loc.buddyOffset, out + on_dev,
                            kEntryBytes - on_dev);
        } else {
            // Reassemble the split payload into the scratch and
            // decode in place: no per-entry allocation.
            const u64 bytes = (static_cast<u64>(bits) + 7) / 8;
            const u64 on_dev = std::min<u64>(bytes, loc.deviceSlotBytes);
            device_->read(loc.deviceAddr, scratch_.io, on_dev);
            if (on_dev < bytes)
                buddy_.read(loc.buddyOffset, scratch_.io + on_dev,
                            bytes - on_dev);
            codec_->decompressFrom(scratch_.io, bits, out);
            codec_pass = true;
        }

        ++summary.reads;
        break;
      }

      case AccessKind::Probe: {
        const EntryMeta meta = metaStore_->get(loc.globalEntryIdx);
        const auto stit = entryState_.find(loc.globalEntryIdx);
        const u32 bits = stit == entryState_.end() ? 0 : stit->second.bits;
        stored_bits = bits;
        is_zero = meta == EntryMeta::Zero;

        // The traffic a read would generate (the same sector split),
        // so probe and read timing are bit-identical.
        info = trafficFor(loc, meta, bits);
        info.metadataHit = meta_hit;

        // Probe mirrors the read's codec accounting too: a read of a
        // Compressed entry would run the decompressor.
        if (meta != EntryMeta::Zero && meta != EntryMeta::Raw)
            codec_pass = true;

        ++summary.probes;
        break;
      }
    }

    info.isZero = is_zero;
    info.codecPass = codec_pass;
    info.storedBits = stored_bits;

    summary.deviceSectors += info.deviceSectors;
    summary.buddySectors += info.buddySectors;
    if (meta_hit)
        ++summary.metadataHits;
    else
        ++summary.metadataMisses;
    if (info.usedBuddy())
        ++summary.buddyAccesses;
    return info;
}

const BatchSummary &
BuddyController::execute(AccessBatch &batch)
{
    return run(batch, true);
}

const BatchSummary &
BuddyController::run(AccessBatch &batch, bool timed)
{
    batch.results_.clear();
    batch.results_.reserve(batch.ops_.size());
    batch.summary_ = BatchSummary{};
    BatchSummary &sum = batch.summary_;

    // The functional pass.
    for (const AccessRequest &op : batch.ops_)
        batch.results_.push_back(executeOp(op, sum));
    if (probes_.active) {
        probes_.batches->add();
        probes_.reads->add(sum.reads);
        probes_.writes->add(sum.writes);
        probes_.probes->add(sum.probes);
        probes_.metadataHits->add(sum.metadataHits);
        probes_.metadataMisses->add(sum.metadataMisses);
        probes_.buddyAccesses->add(sum.buddyAccesses);
    }

    if (timed) {
        // The timing pass: the batch is the latency-overlap scope, so
        // it gets fresh windows.
        timing::WindowGroup windows = makeWindows();
        const bool sample =
            probes_.active && probes_.windowOccupancy != nullptr;
        windowBatch(batch.ops_, batch.results_, windows, sum,
                    sample ? probes_.windowOccupancy : nullptr,
                    sample ? probes_.windowStall : nullptr);
        if (sample)
            probes_.batchMakespan->add(sum.combinedWindowCycles);
    }
    stats_.accumulate(sum);

    // Sinks see the finished batch, window charges included.
    if (!hub_.empty()) {
        for (std::size_t i = 0; i < batch.ops_.size(); ++i) {
            const AccessRequest &op = batch.ops_[i];
            hub_.emit(api::makeEvent(op, batch.results_[i],
                                     allocationFor(op.va).id, 0));
        }
        hub_.emitBatch(sum);
    }
    return sum;
}

} // namespace buddy
