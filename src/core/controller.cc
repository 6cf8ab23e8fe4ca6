#include "core/controller.h"

#include <cstring>

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

/**
 * The controller's window group over @p device and @p buddy. The two
 * link timings are validated against @p window first, so a windowed-
 * replay configuration error (a 0 window, or a windowed replay over a
 * zero-bandwidth link) is reported against the BuddyConfig field at
 * construction rather than at the first executed batch.
 */
timing::WindowGroup
validatedWindows(const BackingStore &device, const BackingStore &buddy,
                 u64 window, const timing::CodecTiming &codec)
{
    timing::validateWindowedTiming(device.timing(), window,
                                   "BuddyConfig deviceLink/linkWindow");
    timing::validateWindowedTiming(buddy.timing(), window,
                                   "BuddyConfig buddyLink/linkWindow");
    return timing::WindowGroup(device.makeWindow(window),
                               buddy.makeWindow(window), codec);
}

} // namespace

// The codec table and makeBackingStore fail fast on unknown names
// (listing the known ones), so a misconfigured codec or backend is
// caught here instead of at the first access.
BuddyController::BuddyController(const BuddyConfig &cfg)
    : BuddyController(cfg, api::CodecRegistry::instance().at(cfg.codec))
{}

BuddyController::BuddyController(const BuddyConfig &cfg,
                                 const api::CodecInfo &codec)
    : cfg_(cfg), codec_(codec.make()),
      codecTiming_(cfg.codecTiming.value_or(codec.timing)),
      device_(makeBackingStore(cfg.deviceBackend, cfg.deviceBytes,
                               cfg.deviceLink)),
      buddy_(cfg.deviceBytes, cfg.carveOutRatio, cfg.buddyBackend,
             cfg.buddyLink, cfg.buddyPeerOrdinal),
      deviceAlloc_(cfg.deviceBytes),
      buddyAlloc_(buddy_.capacity()),
      windows_(validatedWindows(*device_, buddy_.store(), cfg.linkWindow,
                                codecTiming_))
{
    metaCache_ = std::make_unique<MetadataCache>(cfg.metadataCache);
}

BuddyController::~BuddyController() = default;

std::optional<Addr>
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
    // Both reservations hold: make their slots resident now, so the
    // accesses that fill them take no page fault. A None allocation's
    // empty buddy range sits at the allocator's sentinel base and is
    // skipped.
    device_->populate(*dev_off, dev_bytes);
    buddy_.populate(*bud_off, bud_bytes);

    const Addr va = nextVa_;
    nextVa_ += rounded;
    Allocation &a = allocs_[va];
    a.name = name;
    a.va = va;
    a.bytes = rounded;
    a.target = target;
    a.deviceOffset = *dev_off;
    a.buddyOffset = *bud_off;
    a.records.resize(entries);

    deviceUsed_ += dev_bytes;
    buddyUsed_ += bud_bytes;
    logicalUsed_ += rounded;
    return va;
}

void
BuddyController::free(Addr va)
{
    const auto it = allocs_.find(va);
    BUDDY_CHECK(it != allocs_.end(), "free of unknown allocation");
    const Allocation &a = it->second;

    // The freed entries leave the overflow gauge with their records.
    const u64 slot = deviceBytesPerEntry(a.target);
    for (const EntryRecord &rec : a.records)
        if (rec.overflows(slot))
            --overflowEntries_;

    deviceAlloc_.release(a.deviceOffset);
    buddyAlloc_.release(a.buddyOffset);
    deviceUsed_ -= a.deviceBytes();
    buddyUsed_ -= a.buddyBytes();
    logicalUsed_ -= a.bytes;
    lastAlloc_ = nullptr;
    allocs_.erase(it);
}

BuddyController::EntryLoc
BuddyController::locate(Addr va)
{
    BUDDY_CHECK(va % kEntryBytes == 0, "entry address must be 128B aligned");
    // Runs of ops mostly stay inside one allocation.
    if (lastAlloc_ == nullptr || !lastAlloc_->contains(va))
        lastAlloc_ = &allocationHolding(allocs_, va);
    Allocation &a = *lastAlloc_;
    const u64 idx = (va - a.va) / kEntryBytes;
    EntryLoc loc;
    loc.rec = &a.records[idx];
    loc.deviceSlotBytes = deviceBytesPerEntry(a.target);
    loc.deviceAddr = a.deviceOffset + idx * loc.deviceSlotBytes;
    loc.buddyOffset =
        a.buddyOffset + idx * (kEntryBytes - loc.deviceSlotBytes);
    return loc;
}

void
BuddyController::attachProbes(obs::MetricRegistry &registry,
                              const std::string &prefix, bool timed)
{
    probes_.active = true;
    probes_.writesZero = &registry.counter(prefix + "writes_zero");
    probes_.writesCompressed =
        &registry.counter(prefix + "writes_compressed");
    probes_.writesRaw = &registry.counter(prefix + "writes_raw");
    probes_.storedBits = &registry.histogram(prefix + "stored_bits");
    if (!timed)
        return;
    probes_.windowOccupancy =
        &registry.histogram(prefix + "window_occupancy");
    probes_.windowStall = &registry.histogram(prefix + "window_stall");
}

void
BuddyController::executeOp(const AccessRequest &op, BatchSummary &summary,
                           AccessInfo &info)
{
    const EntryLoc loc = locate(op.va);
    EntryRecord &rec = *loc.rec;
    const bool meta_hit = metaCache_->access(op.va / kEntryBytes);

    // Whether this op runs the inline unit: writes of non-zero entries
    // compress (even when the result is stored Raw — the unit still ran
    // to discover that); reads and probes of Compressed entries
    // decompress. Zero entries and Raw reads bypass the unit entirely.
    bool codec_pass = false;

    switch (op.kind) {
      case AccessKind::Write: {
        BUDDY_CHECK(op.src != nullptr, "write op needs a payload");
        const u8 *data = op.src;
        const bool was_overflow = rec.overflows(loc.deviceSlotBytes);

        if (op.unchanged) {
            // The entry already holds these bytes' encoding: the unit
            // runs in the model, but the record and slots stay as they
            // are. Only a write outside the cursor's batches can have
            // zeroed the entry since its last write.
            BUDDY_CHECK(rec.meta != EntryMeta::Zero,
                        "unchanged write to a zero entry (written "
                        "outside its trace cursor's batches)");
            codec_pass = true;
        } else if (entryIsZero(data)) {
            rec = EntryRecord{};
        } else {
            codec_pass = true;
            // The stored payload: the codec's encoding, or the raw data
            // when it does not fit an entry.
            const u8 *payload = data;
            const std::size_t comp_bits =
                codec_->compressInto(data, scratch_.encode, scratch_);
            if (comp_bits > kEntryBytes * 8) {
                rec = {kEntryBytes * 8, EntryMeta::Raw};
            } else {
                rec = {static_cast<u16>(comp_bits),
                       static_cast<EntryMeta>(compressedSectors(comp_bits))};
                payload = scratch_.encode;
            }

            // Store the payload split across the device slot and the
            // entry's fixed buddy slot.
            const u64 bytes = rec.storedBytes();
            const u64 on_dev = std::min<u64>(bytes, loc.deviceSlotBytes);
            device_->write(loc.deviceAddr, payload, on_dev);
            if (on_dev < bytes)
                buddy_.write(loc.buddyOffset, payload + on_dev, bytes - on_dev);
        }

        // Track the overflow population (overflowEntries()).
        const bool now_overflow = rec.overflows(loc.deviceSlotBytes);
        if (was_overflow != now_overflow) {
            if (now_overflow)
                ++overflowEntries_;
            else
                --overflowEntries_;
        }

        ++summary.writes;
        if (probes_.active) {
            if (rec.meta == EntryMeta::Zero)
                probes_.writesZero->add();
            else if (rec.meta == EntryMeta::Raw)
                probes_.writesRaw->add();
            else
                probes_.writesCompressed->add();
            probes_.storedBits->add(rec.bits);
        }
        break;
      }

      case AccessKind::Read: {
        BUDDY_CHECK(op.dst != nullptr, "read op needs a destination");
        u8 *out = op.dst;

        if (rec.meta == EntryMeta::Zero) {
            std::memset(out, 0, kEntryBytes);
        } else {
            // Reassemble the split payload: a Raw entry straight into
            // the destination, a compressed one into the scratch, where
            // it is decoded in place (no per-entry allocation).
            const bool raw = rec.meta == EntryMeta::Raw;
            u8 *buf = raw ? out : scratch_.io;
            const u64 bytes = rec.storedBytes();
            const u64 on_dev = std::min<u64>(bytes, loc.deviceSlotBytes);
            device_->read(loc.deviceAddr, buf, on_dev);
            if (on_dev < bytes)
                buddy_.read(loc.buddyOffset, buf + on_dev, bytes - on_dev);
            if (!raw) {
                codec_->decompressFrom(scratch_.io, rec.bits, out);
                codec_pass = true;
            }
        }

        ++summary.reads;
        break;
      }

      case AccessKind::Probe:
        // The traffic a read would generate (the same sector split) and
        // its codec accounting: a read of a Compressed entry would run
        // the decompressor.
        codec_pass =
            rec.meta != EntryMeta::Zero && rec.meta != EntryMeta::Raw;
        ++summary.probes;
        break;
    }

    // The traffic a read of the entry implies: its payload split
    // between the device slot and the buddy slot (a Zero entry is fully
    // described by metadata and moves no sector).
    const u64 stored = rec.storedBytes();
    const u64 on_device = std::min<u64>(stored, loc.deviceSlotBytes);
    info.deviceSectors = sectorsFor(on_device);
    info.buddySectors = sectorsFor(stored - on_device);
    info.metadataHit = meta_hit;
    info.isZero = rec.meta == EntryMeta::Zero;
    info.codecPass = codec_pass;
    info.storedBits = rec.bits;

    summary.deviceSectors += info.deviceSectors;
    summary.buddySectors += info.buddySectors;
    if (meta_hit)
        ++summary.metadataHits;
    else
        ++summary.metadataMisses;
    if (info.usedBuddy())
        ++summary.buddyAccesses;
}

const BatchSummary &
BuddyController::execute(AccessBatch &batch)
{
    return run(batch, true);
}

void
BuddyController::runOp(const AccessRequest &op, BatchSummary &summary,
                       bool timed, AccessInfo &info)
{
    executeOp(op, summary, info);
    if (timed)
        windowOp(op.kind, info, windows_, summary, probes_.windowOccupancy,
                 probes_.windowStall);
}

const BatchSummary &
BuddyController::run(AccessBatch &batch, bool timed)
{
    batch.results_.clear();
    batch.results_.reserve(batch.ops_.size());
    batch.summary_ = BatchSummary{};

    // The batch is the latency-overlap scope, so its timing starts from
    // reset windows.
    if (timed)
        windows_.reset();
    for (const AccessRequest &op : batch.ops_)
        runOp(op, batch.summary_, timed, batch.results_.emplace_back());
    stats_.accumulate(batch.summary_);
    return batch.summary_;
}

} // namespace buddy
