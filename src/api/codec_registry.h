/**
 * @file
 * Codec table: the four codecs a BuddyConfig can name (bpc, bdi, fpc,
 * zero), one fixed row each holding the codec's name, the timing of its
 * inline hardware unit and its constructor.
 *
 * Lookup of an unknown name fails fast with the list of known codecs
 * instead of returning nullptr; BuddyController validates its
 * configured codec at construction.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compress/compressor.h"
#include "timing/link_model.h"

namespace buddy {
namespace api {

/** One row of the codec table. */
struct CodecInfo
{
    /** Codec name ("bpc", "bdi", ...). */
    const char *name;

    /**
     * Latency/throughput model of the codec's inline hardware unit
     * (timing/link_model.h): the timing the window scheduler charges
     * (de)compression at unless BuddyConfig::codecTiming overrides it.
     */
    timing::CodecTiming timing;

    /** Instantiate the codec. */
    std::unique_ptr<Compressor> (*make)();
};

/** Lookup by name into the codec table (see file header). */
class CodecRegistry
{
  public:
    /** The table. */
    static const CodecRegistry &instance();

    /**
     * The row of @p name. Unknown names are a fatal configuration
     * error that names every known codec — no nullptr escape hatch.
     */
    const CodecInfo &at(const std::string &name) const;

    /** Instantiate a codec by name (at(name).make()). */
    std::unique_ptr<Compressor>
    create(const std::string &name) const
    {
        return at(name).make();
    }

    /** The row of @p name, or nullptr if there is none. */
    const CodecInfo *find(const std::string &name) const;

    /** All codec names, in table order. */
    std::vector<std::string> names() const;

  private:
    CodecRegistry() = default;
};

} // namespace api

using api::CodecInfo;
using api::CodecRegistry;

} // namespace buddy
