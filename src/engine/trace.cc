#include "engine/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/check.h"
#include "common/log.h"
#include "compress/compressor.h"
#include "core/controller.h"
#include "engine/engine.h"

namespace buddy {
namespace engine {

namespace {

constexpr u8 kMagic[4] = {'B', 'D', 'Y', 'T'};
// The only format written; loadImage() rejects every other version.
constexpr u8 kTraceFormatVersion = 5;
constexpr u8 kTagZeroWrite = 0x10;
constexpr u8 kTagRepeat = 0x40;
constexpr u8 kTagBatch = 0xFE;
constexpr u8 kTagFooter = 0xFF;

const u8 kZeroEntry[kEntryBytes] = {};

// Upper bound on entry indices (VA / 128) accepted from a trace image.
// Real captures address at most a few GiB of VA space; a corrupt varint
// decoding to an astronomic index would otherwise wrap the * kEntryBytes
// multiplication below and alias a small VA instead of failing.
constexpr u64 kMaxEntryIndex = u64{1} << 50;

// The op table names an allocation by a 16-bit ordinal and an entry by
// a 32-bit offset into it.
constexpr u64 kMaxAllocations = u64{1} << 16;
constexpr u64 kMaxAllocationBytes = (u64{1} << 32) * kEntryBytes;

/** Bytes of @p v's LEB128 varint: one per 7 bits, at most 10. */
std::size_t
varintBytes(u64 v)
{
    std::size_t n = 1;
    while (v >= 0x80) {
        ++n;
        v >>= 7;
    }
    return n;
}

/** Encode @p v as a LEB128 varint at @p out, which has room for
 *  varintBytes(v) bytes; @return one past the last byte written. */
u8 *
encodeVarint(u8 *out, u64 v)
{
    while (v >= 0x80) {
        *out++ = static_cast<u8>(v) | 0x80;
        v >>= 7;
    }
    *out++ = static_cast<u8>(v);
    return out;
}

void
putVarint(std::vector<u8> &out, u64 v)
{
    u8 buf[10];
    out.insert(out.end(), buf, encodeVarint(buf, v));
}

/** Bounds-checked byte-stream reader over a loaded trace image. */
struct Reader
{
    const std::vector<u8> &data;
    std::size_t pos = 0;

    bool atEnd() const { return pos >= data.size(); }

    u8
    byte()
    {
        BUDDY_CHECK(pos < data.size(), "truncated trace");
        return data[pos++];
    }

    u64
    varint()
    {
        u64 v = 0;
        unsigned shift = 0;
        for (;;) {
            const u8 b = byte();
            // The tenth byte can only contribute the topmost bit
            // (64 - 9*7 = 1): a larger payload or a continuation bit
            // there is an over-long encoding whose high bits would be
            // shifted out silently. Reject instead of truncating.
            if (shift == 63)
                BUDDY_CHECK(b <= 1,
                            "over-long trace varint (more than 64 bits)");
            v |= static_cast<u64>(b & 0x7F) << shift;
            if (!(b & 0x80))
                return v;
            shift += 7;
            BUDDY_CHECK(shift < 64,
                        "over-long trace varint (more than 64 bits)");
        }
    }

    /** A varint used as an entry index (VA / kEntryBytes): bounded so
     *  the caller's * kEntryBytes scaling cannot wrap u64. */
    u64
    entryIndex()
    {
        const u64 idx = varint();
        BUDDY_CHECK(idx < kMaxEntryIndex, "trace entry index out of range");
        return idx;
    }

    const u8 *
    raw(std::size_t len)
    {
        // pos <= size always holds; phrase the bound so a huge length
        // from a corrupt varint cannot overflow past the check.
        BUDDY_CHECK(len <= data.size() - pos, "truncated trace");
        const u8 *p = data.data() + pos;
        pos += len;
        return p;
    }
};

// The v5 footer: these 15 fields in table order, then the batch count.
static_assert(std::size(kSummaryFields) == 15,
              "a new BatchSummary field is a new trace format version");

void
putTotals(std::vector<u8> &out, const TraceTotals &t)
{
    for (const SummaryField &f : kSummaryFields)
        putVarint(out, t.summary.*f.member);
    putVarint(out, t.batches);
}

TraceTotals
readTotals(Reader &r)
{
    TraceTotals t;
    for (const SummaryField &f : kSummaryFields)
        t.summary.*f.member = r.varint();
    t.batches = r.varint();
    return t;
}

/**
 * Which payload record each replayed entry holds, to mark unchanged
 * writes: per allocation ordinal, one slot per entry with 1 + the
 * ordinal of the payload record its last non-zero write named, or 0
 * (none yet, a zero write since, an all-zero payload, or an ordinal
 * past u32). Every slot starts at 0, so an entry's first write in the
 * stream is never marked and every pass of a cursor replays exactly.
 * Slots are made at an allocation's first non-zero write while their
 * total stays within @c budget; an allocation past it has none, and
 * its writes stay unmarked (they just encode).
 */
struct HeldPayloads
{
    std::vector<std::vector<u32>> slots; ///< by allocation; empty: none
    u64 budget = 0;                      ///< slots still allowed

    u32 *
    slot(u16 alloc, u64 entries, u32 offset, bool create)
    {
        std::vector<u32> &held = slots[alloc];
        if (held.empty()) {
            if (!create || entries > budget)
                return nullptr;
            budget -= entries;
            held.assign(entries, 0);
        }
        return &held[offset];
    }

    /** The slot value of an entry holding payload record @p ordinal,
     *  whose bytes are at @p payload. */
    static u32
    holding(u64 ordinal, const u8 *payload)
    {
        return payload == kZeroEntry ||
                       ordinal >= std::numeric_limits<u32>::max()
                   ? 0
                   : static_cast<u32>(ordinal + 1);
    }
};

/** The range of @p ranges (sorted by firstIdx, equal starts in note
 *  order) that starts last at or below entry @p idx, if it holds it. */
template <typename Range>
Range *
rangeHolding(std::vector<Range> &ranges, u64 idx)
{
    const auto it = std::upper_bound(
        ranges.begin(), ranges.end(), idx,
        [](u64 v, const Range &x) { return v < x.firstIdx; });
    if (it == ranges.begin() || idx - (it - 1)->firstIdx >= (it - 1)->entries)
        return nullptr;
    return &*(it - 1);
}

} // namespace

// ------------------------------------------------------------- recorder --

void
TraceRecorderSink::noteAllocation(const std::string &name, Addr va,
                                  u64 bytes, CompressionTarget target)
{
    TraceAllocation a;
    a.name = name;
    a.va = va;
    a.bytes = bytes;
    a.target = target;
    allocs_.push_back(std::move(a));

    // Kept sorted by start for rangeHolding(); an equal start goes
    // after, so a re-noted range finds its latest note.
    const u64 first = va / kEntryBytes;
    const auto at = std::upper_bound(
        slots_.begin(), slots_.end(), first,
        [](u64 v, const EntrySlots &x) { return v < x.firstIdx; });
    slots_.insert(at, {first, (bytes + kEntryBytes - 1) / kEntryBytes, {}});
}

u32 *
TraceRecorderSink::lastPayloadSlot(u64 idx, bool create)
{
    EntrySlots *s = rangeHolding(slots_, idx);
    if (s == nullptr || (s->lastPayload.empty() && !create))
        return nullptr;
    if (s->lastPayload.empty())
        s->lastPayload.assign(s->entries, 0);
    return &s->lastPayload[idx - s->firstIdx];
}

void
TraceRecorderSink::onBatch(const AccessBatch &batch)
{
    BUDDY_CHECK(batch.results().size() == batch.size(),
                "recorded batch has not executed");
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const AccessRequest &op = batch.ops()[i];
        const bool write = op.kind == AccessKind::Write;
        const bool zero_write = write && batch.result(i).isZero;
        const bool payload = write && !zero_write;
        BUDDY_CHECK(!payload || op.src != nullptr,
                    "non-zero write event without a payload");
        const u64 idx = op.va / kEntryBytes;
        u32 *last = write ? lastPayloadSlot(idx, payload) : nullptr;
        // A non-zero write whose bytes equal its entry's last payload
        // records the distance back to that payload record instead.
        u64 back = 0;
        if (payload && last != nullptr && *last != 0 &&
            std::memcmp(stream_.data() + payloadAt_[*last - 1], op.src,
                        kEntryBytes) == 0)
            back = payloadAt_.size() - (*last - 1);
        u8 tag = static_cast<u8>(op.kind);
        if (zero_write)
            tag |= kTagZeroWrite;
        if (back != 0)
            tag |= kTagRepeat;
        // The record is sized once and encoded in place: tag,
        // entry-index varint, then a repeat's distance or the payload
        // of any other non-zero write.
        const bool copy = payload && back == 0;
        const std::size_t at = stream_.size();
        stream_.resize(at + 1 + varintBytes(idx) +
                       (back != 0 ? varintBytes(back)
                                  : copy ? kEntryBytes : 0));
        u8 *out = stream_.data() + at;
        *out++ = tag;
        out = encodeVarint(out, idx);
        if (back != 0)
            encodeVarint(out, back);
        if (copy) {
            std::memcpy(out, op.src, kEntryBytes);
            payloadAt_.push_back(static_cast<u64>(out - stream_.data()));
        }
        // A zero write leaves no payload to refer back to. Past 2^32
        // payload records the slot wraps to an older record; the memcmp
        // above still checks the bytes of the record it names.
        if (last != nullptr && back == 0)
            *last = copy ? static_cast<u32>(payloadAt_.size()) : 0;
    }
    ops_ += batch.size();
    stream_.push_back(kTagBatch);
    putVarint(stream_, batch.size());
    totals_.add(batch.summary());
}

std::vector<u8>
TraceRecorderSink::serialize() const
{
    std::vector<u8> out(kMagic, kMagic + 4);
    out.push_back(kTraceFormatVersion);
    putVarint(out, allocs_.size());
    for (const TraceAllocation &a : allocs_) {
        putVarint(out, a.name.size());
        out.insert(out.end(), a.name.begin(), a.name.end());
        putVarint(out, a.va / kEntryBytes);
        putVarint(out, a.bytes);
        out.push_back(static_cast<u8>(a.target));
    }
    // Size the image exactly before the stream goes in, so the stream
    // is copied once and never again by a growing vector.
    std::vector<u8> footer;
    putTotals(footer, totals_);
    out.reserve(out.size() + stream_.size() + 1 + footer.size());
    out.insert(out.end(), stream_.begin(), stream_.end());
    out.push_back(kTagFooter);
    out.insert(out.end(), footer.begin(), footer.end());
    return out;
}

void
TraceRecorderSink::save(const std::string &path) const
{
    const std::vector<u8> image = serialize();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open trace \"%s\" for writing\n",
                     path.c_str());
        BUDDY_FATAL("trace save failed");
    }
    const std::size_t n = std::fwrite(image.data(), 1, image.size(), f);
    std::fclose(f);
    BUDDY_CHECK(n == image.size(), "short trace write");
}

// ------------------------------------------------------------- replayer --

void
TraceReplayer::load(const std::string &path)
{
    // Only a regular file has a meaningful size: on a directory stream
    // ftell() reports a huge bogus length instead of failing.
    std::error_code ec;
    std::FILE *f = std::filesystem::is_regular_file(path, ec)
                       ? std::fopen(path.c_str(), "rb")
                       : nullptr;
    long size = -1;
    if (f != nullptr && std::fseek(f, 0, SEEK_END) == 0)
        size = std::ftell(f);
    if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
        std::fprintf(stderr, "cannot read trace \"%s\" as a regular file\n",
                     path.c_str());
        BUDDY_FATAL("trace load failed");
    }
    std::vector<u8> image(static_cast<std::size_t>(size));
    const std::size_t n = std::fread(image.data(), 1, image.size(), f);
    std::fclose(f);
    BUDDY_CHECK(n == image.size(), "short trace read");
    loadImage(std::move(image));
}

void
TraceReplayer::loadImage(std::vector<u8> image)
{
    image_ = std::move(image);
    allocs_.clear();
    table_.clear();
    batchStart_.assign(1, 0);
    recorded_ = TraceTotals{};

    Reader r{image_};
    BUDDY_CHECK(std::memcmp(r.raw(4), kMagic, 4) == 0,
                "not a buddy trace (bad magic)");
    const u8 version = r.byte();
    BUDDY_CHECK(version == kTraceFormatVersion, "unsupported trace version");

    const u64 alloc_count = r.varint();
    // Each allocation record occupies at least 4 bytes (empty name:
    // 1-byte nameLen + 1-byte va + 1-byte bytes + target). Bounding the
    // count against the remaining image keeps a corrupt varint from
    // driving a multi-exabyte reserve() below.
    BUDDY_CHECK(alloc_count <= (image_.size() - r.pos) / 4,
                "trace allocation count exceeds image size");
    BUDDY_CHECK(alloc_count <= kMaxAllocations,
                "trace allocation count exceeds the op table's ordinals");
    allocs_.reserve(alloc_count);
    struct Span { u64 firstIdx, entries; u16 ordinal; };
    std::vector<Span> spans;
    for (u64 i = 0; i < alloc_count; ++i) {
        TraceAllocation a;
        const u64 name_len = r.varint();
        const u8 *name = r.raw(name_len);
        a.name.assign(reinterpret_cast<const char *>(name), name_len);
        a.va = r.entryIndex() * kEntryBytes;
        a.bytes = r.varint();
        a.target = static_cast<CompressionTarget>(r.byte());
        BUDDY_CHECK(a.bytes <= kMaxAllocationBytes,
                    "trace allocation exceeds the op table's entry offsets");
        spans.push_back({a.va / kEntryBytes,
                         (a.bytes + kEntryBytes - 1) / kEntryBytes,
                         static_cast<u16>(i)});
        allocs_.push_back(std::move(a));
    }
    // The recorder's order: by start, equal starts in note order.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span &x, const Span &y) {
                         return x.firstIdx < y.firstIdx;
                     });

    // Pass one checks the records and counts ops, payloads and repeats;
    // pass two fills tables reserved at those sizes, which peaks lower
    // than doubling, and marks unchanged writes: a repeat whose named
    // payload record is the one its entry holds. A capture without
    // repeats tracks nothing; otherwise the slots stay within one per
    // image byte, however large an allocation the image declares.
    const std::size_t records = r.pos;
    std::vector<const u8 *> payloads; // payload records, in stream order
    std::size_t ops = 0, payload_count = 0, repeats = 0;
    HeldPayloads held;
    for (bool fill = false;;) {
        const u8 tag = r.byte();
        if (tag == kTagFooter) {
            recorded_ = readTotals(r);
            BUDDY_CHECK(r.atEnd(), "trailing bytes after trace footer");
            BUDDY_CHECK(ops == batchStart_.back(),
                        "trace ends inside an unterminated batch");
            if (fill)
                return;
            fill = true;
            r.pos = records;
            table_.reserve(ops);
            payloads.reserve(payload_count);
            if (repeats != 0) {
                held.slots.resize(allocs_.size());
                held.budget = image_.size();
            }
            batchStart_.resize(1);
            ops = payload_count = 0;
            continue;
        }
        if (tag == kTagBatch) {
            const u64 count = r.varint();
            BUDDY_CHECK(count == ops - batchStart_.back(),
                        "trace batch-mark op count mismatch");
            batchStart_.push_back(ops);
            continue;
        }

        Op op;
        const u8 kind = tag & 0x0F;
        const u8 flags = tag & 0xF0;
        BUDDY_CHECK(kind <= static_cast<u8>(AccessKind::Probe),
                    "unknown trace op kind");
        BUDDY_CHECK((flags & ~(kTagZeroWrite | kTagRepeat)) == 0,
                    "unknown trace op flag bits");
        const bool write = kind == static_cast<u8>(AccessKind::Write);
        const bool zero = flags & kTagZeroWrite;
        const bool repeat = flags & kTagRepeat;
        BUDDY_CHECK(!zero || write, "zero-write flag on a non-write trace op");
        BUDDY_CHECK(!repeat || write, "repeat flag on a non-write trace op");
        BUDDY_CHECK(!(zero && repeat), "repeat flag on a zero-write trace op");
        op.kind = static_cast<AccessKind>(kind);
        const u64 idx = r.entryIndex();
        const Span *span = rangeHolding(spans, idx);
        BUDDY_CHECK(span != nullptr,
                    "trace address outside every recorded allocation");
        op.alloc = span->ordinal;
        op.offset = static_cast<u32>(idx - span->firstIdx);
        u32 *slot = fill && write && !held.slots.empty()
                        ? held.slot(op.alloc, span->entries, op.offset, !zero)
                        : nullptr;
        if (zero) {
            op.payload = kZeroEntry;
            if (slot != nullptr)
                *slot = 0;
        } else if (repeat) {
            const u64 back = r.varint();
            BUDDY_CHECK(back != 0, "trace repeat distance is zero");
            BUDDY_CHECK(back <= payload_count,
                        "trace repeat reaches before the first payload");
            ++repeats;
            if (fill) {
                const u64 named = payload_count - back;
                op.payload = payloads[named];
                if (slot != nullptr) {
                    const u32 holds = HeldPayloads::holding(named, op.payload);
                    op.unchanged = holds != 0 && *slot == holds;
                    *slot = holds;
                }
            }
        } else if (write) {
            op.payload = r.raw(kEntryBytes);
            if (fill) {
                // The controller stores an all-zero payload as a zero
                // write; naming it kZeroEntry keeps every repeat of it
                // unmarked.
                if (!held.slots.empty() && entryIsZero(op.payload))
                    op.payload = kZeroEntry;
                if (slot != nullptr)
                    *slot = HeldPayloads::holding(payload_count, op.payload);
                payloads.push_back(op.payload);
            }
            ++payload_count;
        }
        ++ops;
        if (fill)
            table_.push_back(op);
    }
}

// --------------------------------------------------------------- cursor --

bool
TraceCursor::next(AccessBatch &plan, std::vector<u8> &readBuf)
{
    plan.clear();
    if (done())
        return false;
    const std::size_t b = built_++ % trace_->batchCount();
    const TraceReplayer::Op *ops = trace_->table_.data();
    const TraceReplayer::Op *first = ops + trace_->batchStart_[b];
    const TraceReplayer::Op *last = ops + trace_->batchStart_[b + 1];

    const auto reads = std::count_if(first, last, [](const auto &op) {
        return op.kind == AccessKind::Read;
    });
    readBuf.resize(std::max<std::size_t>(1, reads * kEntryBytes));

    std::size_t next_read = 0;
    for (const TraceReplayer::Op *op = first; op != last; ++op) {
        const Addr va = bases_[op->alloc] + Addr{op->offset} * kEntryBytes;
        switch (op->kind) {
          case AccessKind::Read:
            plan.read(va, readBuf.data() + next_read++ * kEntryBytes);
            break;
          case AccessKind::Write:
            plan.write(va, op->payload);
            plan.ops_.back().unchanged = op->unchanged;
            break;
          case AccessKind::Probe:
            plan.probe(va);
            break;
        }
    }
    return true;
}

template <typename Target>
TraceTotals
TraceReplayer::replayInto(Target &target, unsigned repeat) const
{
    // Whole-capture replay is the cursor streamed to exhaustion.
    TraceCursor cursor(*this, target, repeat);
    TraceTotals totals;
    AccessBatch plan;
    std::vector<u8> read_buf;
    while (cursor.next(plan, read_buf))
        totals.add(target.execute(plan));
    return totals;
}

TraceTotals
TraceReplayer::replay(ShardedEngine &target, unsigned repeat) const
{
    return replayInto(target, repeat);
}

TraceTotals
TraceReplayer::replay(BuddyController &target, unsigned repeat) const
{
    return replayInto(target, repeat);
}

} // namespace engine
} // namespace buddy
