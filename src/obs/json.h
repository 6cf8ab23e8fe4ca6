/**
 * @file
 * Minimal JSON emission for the observability layer: a comma/escape-
 * correct streaming JsonWriter, a dependency-free validity checker, and
 * exportJson() — the byte-stable rendering of a MetricSnapshot.
 *
 * Byte stability is the contract: exportJson() iterates the snapshot's
 * stable (lexicographic) name order, renders integers exactly, and
 * derives every estimated value (histogram percentiles) with integer
 * arithmetic — so two runs that accumulate identical metrics produce
 * *byte-identical* files, and `diff` is a regression test. Wall-clock
 * metrics live under obs::kWallPrefix and are excluded by default from
 * the deterministic export (JsonExportOptions::includeWall).
 */

#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace buddy {
namespace obs {

/**
 * Streaming JSON writer with automatic comma placement and string
 * escaping. Usage:
 *
 *   JsonWriter w;
 *   w.beginObject().key("bench").value("fig12").key("rows")
 *    .beginArray().value(u64{1}).value(u64{2}).endArray().endObject();
 *   w.str(); // {"bench":"fig12","rows":[1,2]}
 *
 * Doubles render via "%.12g"; NaN and infinities (not representable in
 * JSON) render as null. All integer rendering is exact.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object key; must be followed by exactly one value or container. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(u64 v);
    JsonWriter &value(i64 v);
    JsonWriter &value(int v) { return value(static_cast<i64>(v)); }
    JsonWriter &value(unsigned v) { return value(static_cast<u64>(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(bool v);
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v) { return value(std::string(v)); }

    /**
     * Splice @p json — a complete, already-rendered JSON value — into
     * the document as one value (commas handled). The caller vouches
     * for its validity; used to embed exportJson() output.
     */
    JsonWriter &raw(const std::string &json);

    /** The document so far (complete once every container is closed). */
    const std::string &str() const { return out_; }

  private:
    void separate();

    struct Level
    {
        bool array = false;
        bool first = true;
    };

    std::string out_;
    std::vector<Level> levels_;
    bool afterKey_ = false;
};

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &s);

/** Rendering options of exportJson(). */
struct JsonExportOptions
{
    /**
     * Include the obs::kWallPrefix subtree. Off by default: the export
     * is the *deterministic* view, and wall metrics are exactly the
     * ones allowed to differ run-to-run.
     */
    bool includeWall = false;
};

/**
 * Render @p snap as a byte-stable JSON document:
 *
 *   {
 *     "counters":   { "<name>": <u64>, ... },
 *     "gauges":     { "<name>": <i64>, ... },
 *     "histograms": { "<name>": {
 *         "count":..,"sum":..,"min":..,"max":..,"mean":..,
 *         "p50":..,"p95":..,"p99":..,
 *         "buckets": [[<bucketLo>, <count>], ...]   // nonzero only
 *     }, ... }
 *   }
 *
 * Names iterate in stable lexicographic order and every value —
 * including the percentile estimates — is integer-derived, so the
 * output is byte-identical for identical metric state.
 */
std::string exportJson(const MetricSnapshot &snap,
                       const JsonExportOptions &opts = {});

/** Snapshot-and-export convenience. */
std::string exportJson(const MetricRegistry &registry,
                       const JsonExportOptions &opts = {});

/** Write @p text to @p path (fatal on I/O failure). */
void writeFile(const std::string &path, const std::string &text);

} // namespace obs
} // namespace buddy
