#include "obs/chrome_trace.h"

#include <algorithm>

#include "common/check.h"
#include "common/table.h"
#include "obs/json.h"

namespace buddy {
namespace obs {

void
ChromeTraceSink::onBatchComplete(const BatchRecord &record)
{
    records_.push_back(record);
}

void
ChromeTraceSink::noteServiceSpan(u64 seq, u64 arrival, u64 admit,
                                 u64 complete)
{
    BUDDY_CHECK(arrival <= admit && admit < complete,
                "service span times must be arrival <= admit < complete");
    ServiceSpan &s = serviceSpans_[seq];
    s.arrival = arrival;
    s.admit = admit;
    s.complete = complete;
}

namespace {

/** Process ids of the two timeline groups. */
constexpr unsigned kTenantPid = 1;
constexpr unsigned kGpuPid = 2;

void
metadataEvent(JsonWriter &w, const char *what, unsigned pid, unsigned tid,
              const std::string &name)
{
    w.beginObject()
        .key("name").value(what)
        .key("ph").value("M")
        .key("pid").value(pid)
        .key("tid").value(tid)
        .key("args").beginObject().key("name").value(name).endObject()
        .endObject();
}

} // namespace

std::string
ChromeTraceSink::toJson() const
{
    // Lay records out in submission (seq) order, the order the
    // byte-stability contract rests on, whatever order they arrived in.
    std::vector<const BatchRecord *> ordered;
    ordered.reserve(records_.size());
    for (const BatchRecord &r : records_)
        ordered.push_back(&r);
    std::sort(ordered.begin(), ordered.end(),
              [](const BatchRecord *a, const BatchRecord *b) {
                  return a->seq < b->seq;
              });

    // Name the rows that appear.
    std::vector<u32> tenants;
    std::vector<unsigned> shards;
    for (const BatchRecord *r : ordered) {
        tenants.push_back(r->tenant);
        for (const auto &s : r->shards)
            shards.push_back(s.shard);
    }
    std::sort(tenants.begin(), tenants.end());
    tenants.erase(std::unique(tenants.begin(), tenants.end()),
                  tenants.end());
    std::sort(shards.begin(), shards.end());
    shards.erase(std::unique(shards.begin(), shards.end()), shards.end());

    JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ns");
    w.key("traceEvents").beginArray();

    metadataEvent(w, "process_name", kTenantPid, 0, "tenants");
    metadataEvent(w, "process_name", kGpuPid, 0, "gpus");
    for (const u32 t : tenants)
        metadataEvent(w, "thread_name", kTenantPid, t,
                      strfmt("tenant %u", t));
    for (const unsigned s : shards)
        metadataEvent(w, "thread_name", kGpuPid, s, strfmt("gpu %u", s));

    // Lay batches on one simulated-cycle clock. Chrome's ts unit is
    // nominally microseconds; here 1 us == 1 simulated cycle. Batches
    // with a service span sit at their true open-loop times; the rest
    // go end-to-end on the synthetic clock.
    u64 clock = 0;
    u64 cumDeviceSectors = 0;
    u64 cumBuddySectors = 0;
    for (const BatchRecord *r : ordered) {
        u64 ts = clock;
        u64 dur =
            r->summary.combinedWindowCycles > 0
                ? r->summary.combinedWindowCycles
                : 1; // zero-cycle batches still get a visible sliver
        const auto span = serviceSpans_.find(r->seq);
        if (span != serviceSpans_.end()) {
            const ServiceSpan &s = span->second;
            ts = s.admit;
            dur = s.complete - s.admit;
            if (s.admit > s.arrival) {
                // Queueing delay: eligible but unadmitted.
                w.beginObject()
                    .key("name").value(strfmt("queued %llu",
                                              (unsigned long long)r->seq))
                    .key("cat").value("queue")
                    .key("ph").value("X")
                    .key("pid").value(kTenantPid)
                    .key("tid").value(r->tenant)
                    .key("ts").value(s.arrival)
                    .key("dur").value(s.admit - s.arrival)
                    .key("args").beginObject()
                    .key("queueDelayCycles").value(s.admit - s.arrival)
                    .endObject()
                    .endObject();
            }
        }
        cumDeviceSectors += r->summary.deviceSectors;
        cumBuddySectors += r->summary.buddySectors;

        // Tenant-row span: the batch as the tenant experienced it.
        w.beginObject()
            .key("name").value(strfmt("batch %llu",
                                      (unsigned long long)r->seq))
            .key("cat").value("batch")
            .key("ph").value("X")
            .key("pid").value(kTenantPid)
            .key("tid").value(r->tenant)
            .key("ts").value(ts)
            .key("dur").value(dur)
            .key("args").beginObject()
            .key("ops").value(r->summary.operations())
            .key("deviceSectors").value(r->summary.deviceSectors)
            .key("buddySectors").value(r->summary.buddySectors)
            .key("deviceWindowCycles").value(r->summary.deviceWindowCycles)
            .key("buddyWindowCycles").value(r->summary.buddyWindowCycles)
            .endObject()
            .endObject();

        // GPU-row spans, one per participating shard: under PerShard
        // each shard's own makespan, so imbalance shows as ragged ends
        // under a common start; under Merged the batch's makespan.
        for (const auto &s : r->shards) {
            w.beginObject()
                .key("name").value(strfmt("batch %llu",
                                          (unsigned long long)r->seq))
                .key("cat").value("shard")
                .key("ph").value("X")
                .key("pid").value(kGpuPid)
                .key("tid").value(s.shard)
                .key("ts").value(ts)
                .key("dur").value(s.combinedCycles > 0 ? s.combinedCycles
                                                       : 1)
                .key("args").beginObject()
                .key("ops").value(s.ops)
                .endObject()
                .endObject();
        }

        // Counter tracks sampled at the batch's start.
        w.beginObject()
            .key("name").value("window occupancy")
            .key("ph").value("C")
            .key("pid").value(kGpuPid)
            .key("tid").value(0)
            .key("ts").value(ts)
            .key("args").beginObject()
            .key("device").value(r->maxDeviceOutstanding)
            .key("buddy").value(r->maxBuddyOutstanding)
            .endObject()
            .endObject();
        w.beginObject()
            .key("name").value("sector traffic")
            .key("ph").value("C")
            .key("pid").value(kTenantPid)
            .key("tid").value(0)
            .key("ts").value(ts)
            .key("args").beginObject()
            .key("device").value(cumDeviceSectors)
            .key("buddy").value(cumBuddySectors)
            .endObject()
            .endObject();

        if (span == serviceSpans_.end())
            clock += dur; // synthetic layout only advances for unpinned
    }

    w.endArray();
    w.endObject();
    return w.str();
}

void
ChromeTraceSink::save(const std::string &path) const
{
    writeFile(path, toJson());
}

} // namespace obs
} // namespace buddy
