/**
 * @file
 * Codec explorer: compress user-selected data patterns with every codec
 * in the library and print exact encoded sizes, sector placements, and
 * which target compression ratios each pattern would satisfy — a
 * hands-on tour of the compression substrate.
 *
 *   ./examples/codec_explorer
 */

#include <cstdio>
#include <cstring>

#include "api/codec_registry.h"
#include "common/rng.h"
#include "common/table.h"
#include "compress/sector.h"
#include "workloads/patterns.h"

using namespace buddy;

namespace {

struct Pattern
{
    const char *name;
    void (*fill)(Rng &, u8 *);
};

void fillZeros(Rng &, u8 *out) { std::memset(out, 0, kEntryBytes); }

void
fillSmoothFp(Rng &rng, u8 *out)
{
    fillFp32Field(rng, -14, out);
}

void
fillRoughFp(Rng &rng, u8 *out)
{
    fillFp32Field(rng, -3, out);
}

void
fillSmallInts(Rng &rng, u8 *out)
{
    for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
        const u32 v = static_cast<u32>(rng.below(200));
        std::memcpy(out + w * 4, &v, 4);
    }
}

void
fillStructs(Rng &rng, u8 *out)
{
    fillStructStripe(rng, 4, out);
}

void
fillRandomBytes(Rng &rng, u8 *out)
{
    for (std::size_t i = 0; i < kEntryBytes; ++i)
        out[i] = static_cast<u8>(rng.below(256));
}

} // namespace

int
main()
{
    const Pattern patterns[] = {
        {"zeros", fillZeros},
        {"smooth fp32 field", fillSmoothFp},
        {"noisy fp32 field", fillRoughFp},
        {"small integers", fillSmallInts},
        {"struct-of-mixed", fillStructs},
        {"random bytes", fillRandomBytes},
    };
    // Every codec in the codec table joins the tour.
    const auto &registry = api::CodecRegistry::instance();
    const auto codecs = registry.names();

    std::printf("=== Codec explorer: mean compressed size (bytes of "
                "128) over 200 entries ===\n\n");

    std::vector<std::string> header = {"pattern"};
    header.insert(header.end(), codecs.begin(), codecs.end());
    header.push_back("sectors(bpc)");
    header.push_back("fits target");
    Table t(header);
    for (const auto &p : patterns) {
        std::vector<std::string> row = {p.name};
        double bpc_bits = 0;
        for (const auto &cname : codecs) {
            const auto codec = registry.create(cname);
            Rng rng(7);
            double bits = 0;
            u8 buf[kEntryBytes];
            CompressionScratch scratch;
            for (int i = 0; i < 200; ++i) {
                p.fill(rng, buf);
                bits += static_cast<double>(
                    codec->compressInto(buf, scratch.encode, scratch));
            }
            bits /= 200.0;
            if (cname == "bpc")
                bpc_bits = bits;
            row.push_back(strfmt("%.1f", bits / 8.0));
        }
        const unsigned sectors =
            compressedSectors(static_cast<std::size_t>(bpc_bits));
        row.push_back(strfmt("%u", sectors));
        const char *fits = "1x only";
        if (bpc_bits <= 8 * 8)
            fits = "16x";
        else if (bpc_bits <= 32 * 8)
            fits = "4x";
        else if (bpc_bits <= 64 * 8)
            fits = "2x";
        else if (bpc_bits <= 96 * 8)
            fits = "1.33x";
        row.push_back(fits);
        t.addRow(row);
    }
    t.print();

    std::printf("\nBPC dominates on smooth/homogeneous data (why the "
                "paper picked it); nothing helps random bytes, and "
                "word-interleaved structs defeat delta coding.\n");
    return 0;
}
