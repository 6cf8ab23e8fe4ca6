/**
 * @file
 * Randomized round-trip fuzz over every registered codec: 10k random +
 * patterned entries per codec, and a corpus of entries whose deltas
 * sit on BPC's bit-plane boundaries, must encode/decode bit-exactly
 * through compressInto/decompressFrom, and the encoded streams
 * themselves must match a pinned digest (a codec that emits different
 * bits that still round-trip fails here).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "api/codec_registry.h"
#include "common/rng.h"
#include "workloads/patterns.h"

namespace buddy {
namespace {

constexpr int kFuzzEntries = 10000;

/** Deterministic mix of every pattern class plus full-entropy data. */
void
fuzzEntry(Rng &rng, int i, u8 *buf)
{
    switch (i % 10) {
      case 0:
        std::memset(buf, 0, kEntryBytes);
        break;
      case 1: case 2: case 3: case 4: case 5:
        // All six need buckets (zero handled above; 1..5 here).
        fillBucketEntry(rng, static_cast<unsigned>(i % 10), buf);
        break;
      case 6:
        fillFp32Field(rng, -10, buf);
        break;
      case 7:
        fillStructStripe(rng, 4, buf);
        break;
      case 8: {
        // Repeated 8-byte value (exercises BDI's Repeat8 and FPC runs).
        u8 v[8];
        for (auto &b : v)
            b = static_cast<u8>(rng.below(256));
        for (std::size_t off = 0; off < kEntryBytes; off += 8)
            std::memcpy(buf + off, v, 8);
        break;
      }
      default:
        for (std::size_t k = 0; k < kEntryBytes; ++k)
            buf[k] = static_cast<u8>(rng.below(256));
        break;
    }
}

/**
 * Entries whose word-to-word deltas sit where BPC's bit-plane transform
 * changes shape: on either side of a sign-extended 16-bit delta
 * (+-32767, -32768, +32768, -32769, and deltas with bit 15 set and bits
 * 16..31 clear, whose DBX planes stop at 15 while their DBP planes do
 * not), across the 32-bit wrap (whose deltas reach the top plane), with
 * every delta zero, alternating in sign, or drawn from
 * [-2^15 - 2, 2^15 + 2].
 */
void
boundaryEntry(Rng &rng, int i, u8 *buf)
{
    static constexpr i64 kEdges[] = {
        32767,  -32767, -32768, 32768,  -32769, 0x8001, 0xFFFF,
        0x10000, -0x10001, 0x7FFF8000, -0x80000000ll, 1,     -1,
    };
    constexpr std::size_t kNumEdges = sizeof(kEdges) / sizeof(kEdges[0]);
    const auto edge = [&] { return kEdges[rng.below(kNumEdges)]; };
    const auto narrow = [&] {
        return static_cast<i64>(rng.below((1u << 16) + 5)) - (1 << 15) - 2;
    };

    u32 words[kWordsPerEntry];
    words[0] = static_cast<u32>(rng.next());
    i64 deltas[kWordsPerEntry - 1];
    const int n = i / 7;
    switch (i % 7) {
      case 0: // one edge delta throughout
        for (auto &d : deltas)
            d = kEdges[n % kNumEdges];
        break;
      case 1: // edge deltas mixed with narrow ones
        for (auto &d : deltas)
            d = rng.below(2) ? edge() : narrow();
        break;
      case 2: { // a ramp across the 32-bit wrap, up or down
        const i64 step = 1 + n % 3;
        const bool up = n % 2 == 0;
        words[0] = up ? static_cast<u32>(-(16 + n % 17) * step)
                      : static_cast<u32>((8 + n % 17) * step);
        for (auto &d : deltas)
            d = up ? step : -step;
        if (n % 5 == 0) { // words alternate 0xFFFFFFFF and 0
            words[0] = 0xFFFFFFFFu;
            for (std::size_t k = 0; k < kWordsPerEntry - 1; ++k)
                deltas[k] = k % 2 ? -1 : 1;
        }
        break;
      }
      case 3: // constant non-zero entry
        if (words[0] == 0)
            words[0] = 1;
        if (n % 4 == 0)
            words[0] = static_cast<u32>(kEdges[n / 4 % kNumEdges]);
        for (auto &d : deltas)
            d = 0;
        break;
      case 4: { // alternating signs
        const i64 a = n % 2 ? edge() : narrow();
        for (std::size_t k = 0; k < kWordsPerEntry - 1; ++k)
            deltas[k] = k % 2 ? -a : a;
        break;
      }
      default: // seeded ramp of narrow deltas
        for (auto &d : deltas)
            d = narrow();
        break;
    }
    for (std::size_t k = 0; k + 1 < kWordsPerEntry; ++k)
        words[k + 1] = words[k] + static_cast<u32>(deltas[k]);
    std::memcpy(buf, words, kEntryBytes);
}

/** A deterministic entry generator, its length and its seed. */
struct Corpus
{
    const char *name;
    void (*entry)(Rng &, int, u8 *);
    int entries;
    u64 seed;
};

const std::vector<Corpus> kCorpora = {
    {"fuzz", fuzzEntry, kFuzzEntries, 2026},
    {"boundary", boundaryEntry, 4200, 38},
};

/** Fold @p n bytes into a 64-bit FNV-1a hash @p h. */
u64
fnv1a(u64 h, const u8 *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ull;
    return h;
}

/**
 * Digest of every encoded stream of a corpus: FNV-1a over (size_bits as
 * 8 little-endian bytes, payload bytes [0, (size_bits + 7) / 8)) for
 * each entry in order.
 */
u64
streamDigest(const Compressor &codec, const Corpus &corpus)
{
    Rng rng(corpus.seed);
    u8 buf[kEntryBytes];
    CompressionScratch scratch;

    u64 digest = 0xcbf29ce484222325ull; // FNV-1a offset basis
    for (int i = 0; i < corpus.entries; ++i) {
        corpus.entry(rng, i, buf);
        const u64 bits = codec.compressInto(buf, scratch.encode, scratch);
        u8 size_le[8];
        for (unsigned k = 0; k < 8; ++k)
            size_le[k] = static_cast<u8>(bits >> (8 * k));
        digest = fnv1a(digest, size_le, sizeof(size_le));
        digest = fnv1a(digest, scratch.encode, (bits + 7) / 8);
    }
    return digest;
}

/**
 * Stream digest of the fuzz corpus, per codec. Any change to a codec's
 * bitstream changes its digest; update a value only together with an
 * intended format change.
 */
const std::map<std::string, u64> kPinnedStreamDigest = {
    {"bdi", 0x10d3e0b3f2e2f7b5ull},
    {"bpc", 0xc3ea0e75d23b0db5ull},
    {"fpc", 0x71dea77d897fa481ull},
    {"zero", 0x8d0163dad6d16185ull},
};

/** BPC's stream digest of the boundary corpus, pinned the same way. */
constexpr u64 kPinnedBpcBoundaryDigest = 0x8b909b70ff5ec2adull;

class CodecFuzzTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(CodecFuzzTest, ScratchPathRoundTripsBitExactly)
{
    const auto codec = api::CodecRegistry::instance().create(GetParam());
    u8 buf[kEntryBytes], out[kEntryBytes];
    CompressionScratch scratch;

    for (const Corpus &corpus : kCorpora) {
        Rng rng(corpus.seed);
        for (int i = 0; i < corpus.entries; ++i) {
            corpus.entry(rng, i, buf);
            const std::size_t bits =
                codec->compressInto(buf, scratch.encode, scratch);
            ASSERT_GT(bits, 0u);
            ASSERT_LE((bits + 7) / 8, kMaxEncodedBytes);
            std::memset(out, 0xAA, sizeof(out));
            codec->decompressFrom(scratch.encode, bits, out);
            ASSERT_EQ(std::memcmp(buf, out, kEntryBytes), 0)
                << GetParam() << " " << corpus.name << " entry " << i;
        }
    }
}

TEST_P(CodecFuzzTest, DecodeReadsOnlyThePayload)
{
    // Decode each stream from a heap block of exactly (bits + 7) / 8
    // bytes: a decoder that reads past its payload is caught by ASan
    // (CompressionScratch::encode has spare bytes that would hide it).
    const auto codec = api::CodecRegistry::instance().create(GetParam());
    u8 buf[kEntryBytes], out[kEntryBytes];
    CompressionScratch scratch;

    for (const Corpus &corpus : kCorpora) {
        Rng rng(corpus.seed);
        for (int i = 0; i < corpus.entries; ++i) {
            corpus.entry(rng, i, buf);
            const std::size_t bits =
                codec->compressInto(buf, scratch.encode, scratch);
            const std::size_t nbytes = (bits + 7) / 8;
            std::unique_ptr<u8[]> payload(new u8[nbytes]);
            std::memcpy(payload.get(), scratch.encode, nbytes);
            std::memset(out, 0xAA, sizeof(out));
            codec->decompressFrom(payload.get(), bits, out);
            ASSERT_EQ(std::memcmp(buf, out, kEntryBytes), 0)
                << GetParam() << " " << corpus.name << " entry " << i;
        }
    }
}

TEST_P(CodecFuzzTest, EncodedStreamsMatchPinnedDigest)
{
    const auto pinned = kPinnedStreamDigest.find(GetParam());
    ASSERT_NE(pinned, kPinnedStreamDigest.end())
        << "no pinned stream digest for codec " << GetParam();
    const auto codec = api::CodecRegistry::instance().create(GetParam());
    const u64 digest = streamDigest(*codec, kCorpora[0]);
    EXPECT_EQ(digest, pinned->second)
        << GetParam() << " stream digest 0x" << std::hex << digest;
}

TEST(CodecFuzz, BpcBoundaryStreamsMatchPinnedDigest)
{
    const auto codec = api::CodecRegistry::instance().create("bpc");
    const u64 digest = streamDigest(*codec, kCorpora[1]);
    EXPECT_EQ(digest, kPinnedBpcBoundaryDigest)
        << "bpc boundary stream digest 0x" << std::hex << digest;
}

TEST_P(CodecFuzzTest, ScratchReuseNeedsNoClearing)
{
    // Encoding a large entry then a tiny one into the same scratch must
    // not leak stale bytes into the tiny payload.
    const auto codec = api::CodecRegistry::instance().create(GetParam());
    Rng rng(5);
    u8 big[kEntryBytes], out[kEntryBytes];
    u8 zeros[kEntryBytes] = {};
    for (auto &b : big)
        b = static_cast<u8>(rng.below(256));
    CompressionScratch scratch;

    codec->compressInto(big, scratch.encode, scratch);
    const std::size_t bits =
        codec->compressInto(zeros, scratch.encode, scratch);
    codec->decompressFrom(scratch.encode, bits, out);
    EXPECT_EQ(std::memcmp(zeros, out, kEntryBytes), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredCodecs, CodecFuzzTest,
    ::testing::ValuesIn(api::CodecRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace buddy
