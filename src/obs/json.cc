#include "obs/json.h"

#include <cmath>
#include <cstdio>

#include "common/log.h"

namespace buddy {
namespace obs {

// --------------------------------------------------------------- writer --

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (!levels_.empty()) {
        if (!levels_.back().first)
            out_ += ',';
        levels_.back().first = false;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    levels_.push_back({false, true});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    BUDDY_CHECK(!levels_.empty() && !levels_.back().array,
                "endObject outside an object");
    BUDDY_CHECK(!afterKey_, "dangling key at endObject");
    out_ += '}';
    levels_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    levels_.push_back({true, true});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    BUDDY_CHECK(!levels_.empty() && levels_.back().array,
                "endArray outside an array");
    out_ += ']';
    levels_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    BUDDY_CHECK(!levels_.empty() && !levels_.back().array,
                "key outside an object");
    BUDDY_CHECK(!afterKey_, "two keys in a row");
    separate();
    out_ += '"';
    out_ += jsonEscape(k);
    out_ += "\":";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(u64 v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(i64 v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", (long long)v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        out_ += "null"; // JSON has no NaN/Inf
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    out_ += '"';
    out_ += jsonEscape(v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    separate();
    out_ += json;
    return *this;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// --------------------------------------------------------------- export --

namespace {

/** True when @p name passes the options' subtree filter. */
bool
exported(const std::string &name, const JsonExportOptions &opts)
{
    return opts.includeWall || name.compare(0, 5, kWallPrefix) != 0;
}

} // namespace

std::string
exportJson(const MetricSnapshot &snap, const JsonExportOptions &opts)
{
    JsonWriter w;
    w.beginObject();

    w.key("counters").beginObject();
    for (const auto &[name, v] : snap.counters)
        if (exported(name, opts))
            w.key(name).value(v);
    w.endObject();

    w.key("gauges").beginObject();
    for (const auto &[name, v] : snap.gauges)
        if (exported(name, opts))
            w.key(name).value(v);
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &[name, h] : snap.histograms) {
        if (!exported(name, opts))
            continue;
        w.key(name).beginObject();
        w.key("count").value(h.count());
        w.key("sum").value(h.sum());
        w.key("min").value(h.min());
        w.key("max").value(h.max());
        w.key("mean").value(h.mean());
        w.key("p50").value(h.percentile(500));
        w.key("p95").value(h.percentile(950));
        w.key("p99").value(h.percentile(990));
        w.key("buckets").beginArray();
        for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
            if (h.bucketCount(b) == 0)
                continue;
            w.beginArray()
                .value(LatencyHistogram::bucketLo(b))
                .value(h.bucketCount(b))
                .endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.endObject();
    return w.str();
}

std::string
exportJson(const MetricRegistry &registry, const JsonExportOptions &opts)
{
    return exportJson(registry.snapshot(), opts);
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open \"%s\" for writing\n",
                     path.c_str());
        BUDDY_FATAL("writeFile open failed");
    }
    const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
    const bool ok = n == text.size() && std::fclose(f) == 0;
    if (!ok)
        BUDDY_FATAL("writeFile short write");
}

} // namespace obs
} // namespace buddy
