#include "api/codec_registry.h"

#include <cstdio>

#include "common/log.h"
#include "compress/bdi.h"
#include "compress/bpc.h"
#include "compress/fpc.h"
#include "compress/zero.h"

namespace buddy {
namespace api {

namespace {

template <typename C>
std::unique_ptr<Compressor>
make()
{
    return std::make_unique<C>();
}

/**
 * Every codec, with its inline-unit timing in cycles per 128 B entry at
 * the core clock (initiation interval, pipeline depth). Rough estimates
 * of relative hardware complexity, deepest pipe for the heaviest
 * transform: zero detection is a wired OR (free); BDI is a single-pass
 * delta pack; FPC adds per-word prefix coding; BPC's delta+bit-plane
 * (DBX) transform is the deepest of the four. These feed only the
 * *codec-charged* totals — the serial and windowed link totals never
 * depend on them — and BuddyConfig::codecTiming overrides them per
 * controller.
 */
constexpr CodecInfo kCodecs[] = {
    {"bpc", {2, 4}, make<BpcCompressor>},
    {"bdi", {1, 2}, make<BdiCompressor>},
    {"fpc", {1, 3}, make<FpcCompressor>},
    {"zero", {0, 1}, make<ZeroCompressor>},
};

} // namespace

const CodecRegistry &
CodecRegistry::instance()
{
    static const CodecRegistry registry;
    return registry;
}

const CodecInfo &
CodecRegistry::at(const std::string &name) const
{
    if (const CodecInfo *info = find(name))
        return *info;
    std::string known;
    for (const std::string &n : names())
        known += known.empty() ? n : ", " + n;
    std::fprintf(stderr, "unknown codec \"%s\"; known codecs: %s\n",
                 name.c_str(), known.c_str());
    BUDDY_FATAL("unknown codec name");
}

const CodecInfo *
CodecRegistry::find(const std::string &name) const
{
    for (const CodecInfo &info : kCodecs)
        if (name == info.name)
            return &info;
    return nullptr;
}

std::vector<std::string>
CodecRegistry::names() const
{
    std::vector<std::string> out;
    for (const CodecInfo &info : kCodecs)
        out.emplace_back(info.name);
    return out;
}

} // namespace api
} // namespace buddy
