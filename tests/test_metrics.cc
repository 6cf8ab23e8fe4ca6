/**
 * @file
 * Tests of the observability registry (obs/metrics.h) and its JSON
 * export (obs/json.h): log2-bucket boundaries, deterministic percentile
 * estimates, exact histogram merges, snapshots, registry
 * get-or-create semantics, and byte-stable exportJson output (including
 * the wall-subtree filter and the export of a narrowed snapshot).
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "json_check.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace buddy {
namespace obs {
namespace {

using testutil::jsonValid;

TEST(LatencyHistogram, BucketBoundaries)
{
    EXPECT_EQ(LatencyHistogram::bucketOf(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(1), 1u);
    EXPECT_EQ(LatencyHistogram::bucketOf(2), 2u);
    EXPECT_EQ(LatencyHistogram::bucketOf(3), 2u);
    EXPECT_EQ(LatencyHistogram::bucketOf(4), 3u);
    EXPECT_EQ(LatencyHistogram::bucketOf(1023), 10u);
    EXPECT_EQ(LatencyHistogram::bucketOf(1024), 11u);
    EXPECT_EQ(LatencyHistogram::bucketOf(~0ull),
              LatencyHistogram::kBuckets - 1);

    // Every bucket's [lo, hi] round-trips through bucketOf.
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
        EXPECT_EQ(LatencyHistogram::bucketOf(LatencyHistogram::bucketLo(b)),
                  b);
        EXPECT_EQ(LatencyHistogram::bucketOf(LatencyHistogram::bucketHi(b)),
                  b);
    }
}

TEST(LatencyHistogram, ExactAggregates)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(500), 0u);

    for (const u64 v : {0ull, 1ull, 5ull, 100ull, 100ull, 7000ull}) {
        h.add(v);
    }
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.sum(), 7206u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 7000u);
    EXPECT_EQ(h.mean(), 1201u);
}

TEST(LatencyHistogram, PercentilesAreClampedAndOrdered)
{
    LatencyHistogram h;
    Rng rng(5);
    for (int i = 0; i < 10000; ++i)
        h.add(100 + rng.below(900)); // samples in [100, 999]

    const u64 p0 = h.percentile(0);
    const u64 p50 = h.percentile(500);
    const u64 p95 = h.percentile(950);
    const u64 p99 = h.percentile(990);
    const u64 p100 = h.percentile(1000);

    EXPECT_EQ(p0, h.min());
    EXPECT_EQ(p100, h.max());
    EXPECT_LE(p0, p50);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, p100);
    // Estimates stay inside the observed range, never just bucket
    // bounds (the bucket [512, 1023] exceeds the true max of 999).
    EXPECT_GE(p50, h.min());
    EXPECT_LE(p99, h.max());
}

TEST(LatencyHistogram, SingleValuePercentilesAreExact)
{
    LatencyHistogram h;
    for (int i = 0; i < 100; ++i)
        h.add(777);
    EXPECT_EQ(h.percentile(500), 777u);
    EXPECT_EQ(h.percentile(990), 777u);
}

TEST(LatencyHistogram, MergeIsExactAndOrderIndependent)
{
    Rng rng(9);
    LatencyHistogram whole, a, b, c;
    for (int i = 0; i < 3000; ++i) {
        const u64 v = rng.below(1 << 20);
        whole.add(v);
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(v);
    }

    LatencyHistogram ab = a; // fold a<-b<-c
    ab.merge(b);
    ab.merge(c);
    LatencyHistogram cb = c; // fold c<-b<-a (reverse completion order)
    cb.merge(b);
    cb.merge(a);

    for (const LatencyHistogram *m : {&ab, &cb}) {
        EXPECT_EQ(m->count(), whole.count());
        EXPECT_EQ(m->sum(), whole.sum());
        EXPECT_EQ(m->min(), whole.min());
        EXPECT_EQ(m->max(), whole.max());
        for (std::size_t bkt = 0; bkt < LatencyHistogram::kBuckets; ++bkt)
            EXPECT_EQ(m->bucketCount(bkt), whole.bucketCount(bkt));
        EXPECT_EQ(m->percentile(990), whole.percentile(990));
    }
}

TEST(MetricRegistry, GetOrCreateKeepsStableAddresses)
{
    MetricRegistry reg;
    Counter &c1 = reg.counter("sim/a");
    Counter &c2 = reg.counter("sim/b");
    c1.add(3);
    Counter &again = reg.counter("sim/a");
    EXPECT_EQ(&again, &c1); // same object, not a fresh one
    EXPECT_EQ(again.value(), 3u);
    EXPECT_EQ(c2.value(), 0u);

    reg.gauge("sim/g").set(-5);
    reg.histogram("sim/h").add(17);
    const MetricSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.gauges.at("sim/g"), -5);
    EXPECT_EQ(snap.histograms.at("sim/h").sum(), 17u);
}

TEST(MetricRegistryDeath, CrossKindNameIsFatal)
{
    MetricRegistry reg;
    reg.counter("sim/x");
    EXPECT_DEATH({ reg.histogram("sim/x"); }, "sim/x");
}

TEST(ExportJson, ByteStableAndValid)
{
    const auto build = [](MetricRegistry &reg) {
        reg.counter("sim/engine/batches").add(12);
        reg.gauge("sim/engine/shards").set(4);
        LatencyHistogram &h = reg.histogram("sim/engine/makespan");
        Rng rng(41);
        for (int i = 0; i < 500; ++i)
            h.add(rng.below(100000));
        reg.counter("wall/engine/queue_depth").add(99);
    };

    MetricRegistry a, b;
    build(a);
    build(b);
    const std::string ja = exportJson(a);
    const std::string jb = exportJson(b);
    EXPECT_EQ(ja, jb); // byte-identical for identical state
    EXPECT_TRUE(jsonValid(ja));

    // The wall subtree is excluded by default and opt-in.
    EXPECT_EQ(ja.find("wall/"), std::string::npos);
    JsonExportOptions wall;
    wall.includeWall = true;
    const std::string jw = exportJson(a, wall);
    EXPECT_TRUE(jsonValid(jw));
    EXPECT_NE(jw.find("wall/engine/queue_depth"), std::string::npos);

    // A snapshot narrowed to one subtree exports only that subtree.
    const std::string js =
        exportJson(testutil::withPrefix(a.snapshot(), "sim/engine/"));
    EXPECT_TRUE(jsonValid(js));
    EXPECT_NE(js.find("sim/engine/batches"), std::string::npos);
    EXPECT_EQ(js.find("wall/"), std::string::npos);
}

TEST(JsonWriter, EscapesAndValidates)
{
    JsonWriter w;
    w.beginObject()
        .key("s")
        .value(std::string("a\"b\\c\nd\te\x01"))
        .key("nan")
        .value(0.0 / 0.0)
        .key("neg")
        .value(i64{-42})
        .endObject();
    EXPECT_TRUE(jsonValid(w.str()));
    EXPECT_NE(w.str().find("\\u0001"), std::string::npos);
    EXPECT_NE(w.str().find("null"), std::string::npos);

    EXPECT_FALSE(jsonValid("{\"a\":1,}"));
    EXPECT_FALSE(jsonValid("{\"a\":1} trailing"));
    EXPECT_FALSE(jsonValid("{'a':1}"));
    EXPECT_TRUE(jsonValid("[1, 2.5e3, \"x\", true, null, {}]"));
}

// The checker the export tests rely on must reject what real parsers
// reject; otherwise a malformed report would pass them.
TEST(JsonCheck, RejectsMalformedDocuments)
{
    for (const char *bad : {
             "",                  // no value
             "   ",               // whitespace only
             "{",                 // unterminated object
             "[1, 2",             // unterminated array
             "[1 2]",             // missing comma
             "{\"a\" 1}",         // missing colon
             "{1: 2}",            // non-string key
             "\"abc",             // unterminated string
             "\"a\x1f\"",         // raw control byte in a string
             "\"\\q\"",           // unknown escape
             "\"\\u12G4\"",       // bad unicode escape
             "01",                // leading zero
             "-",                 // sign without digits
             "1.",                // fraction without digits
             "1e",                // exponent without digits
             "+1",                // leading plus
             "tru",               // truncated literal
             "nul",               // truncated literal
             "[1]]",              // trailing garbage
         })
        EXPECT_FALSE(jsonValid(bad)) << bad;

    // Nesting is bounded: 256 levels parse, 257 do not.
    EXPECT_TRUE(jsonValid(std::string(256, '[') + std::string(256, ']')));
    EXPECT_FALSE(jsonValid(std::string(257, '[') + std::string(257, ']')));

    for (const char *good : {"0", "-0.5e-3", "\"\\u00e9\\n\"", " {} ",
                             "{\"a\": [true, false, null]}"})
        EXPECT_TRUE(jsonValid(good)) << good;
}

// The writer and the validator are two independent implementations of
// the string grammar; every byte value the writer can be handed must
// come out as something the validator accepts, or exported metric
// names/values with unusual bytes would produce reports jsonValid —
// and real parsers — reject.
TEST(JsonWriter, EveryByteValueEscapesToValidJson)
{
    // Each byte value alone, embedded mid-string, and as a key.
    for (unsigned b = 0; b < 256; ++b) {
        const std::string s("x" + std::string(1, static_cast<char>(b)) +
                            "y");
        EXPECT_TRUE(jsonValid("\"" + jsonEscape(s) + "\""))
            << "byte 0x" << std::hex << b;

        JsonWriter w;
        w.beginObject().key(s).value(s).endObject();
        EXPECT_TRUE(jsonValid(w.str())) << "byte 0x" << std::hex << b;
    }

    // All 256 values in one string: still one valid document.
    std::string all;
    for (unsigned b = 0; b < 256; ++b)
        all += static_cast<char>(b);
    JsonWriter w;
    w.beginObject().key("all").value(all).endObject();
    EXPECT_TRUE(jsonValid(w.str()));

    // Control bytes escape to \uXXXX; printable/high bytes pass through
    // untouched — multi-byte UTF-8 sequences (2-, 3-, and 4-byte) and
    // DEL (0x7f, printable per the JSON grammar) must survive verbatim.
    EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
    EXPECT_EQ(jsonEscape("\xe2\x86\x92"), "\xe2\x86\x92");
    EXPECT_EQ(jsonEscape("\xf0\x9f\x98\x80"), "\xf0\x9f\x98\x80");
    EXPECT_EQ(jsonEscape("\x7f"), "\x7f");
    EXPECT_EQ(jsonEscape("\x1f"), "\\u001f");
    EXPECT_TRUE(jsonValid("\"" + jsonEscape("caf\xc3\xa9 \xf0\x9f\x98"
                                            "\x80 \x7f") +
                          "\""));
}

} // namespace
} // namespace obs
} // namespace buddy
