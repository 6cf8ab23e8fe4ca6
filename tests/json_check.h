/**
 * @file
 * Helpers for tests of the JSON the library emits: jsonValid(), a
 * strict syntax check of a complete JSON document (objects, arrays,
 * strings with escapes, numbers, literals; no trailing garbage), and
 * withPrefix(), which narrows a metric snapshot to one subtree before
 * it is exported.
 */

#pragma once

#include <cctype>
#include <iterator>
#include <string>

#include "obs/metrics.h"

namespace buddy {
namespace testutil {

namespace detail {

/** Recursive-descent JSON syntax checker over a string span. */
struct JsonParser
{
    const char *p;
    const char *end;
    int depth = 0;

    static constexpr int kMaxDepth = 256;

    void skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    literal(const char *word)
    {
        for (; *word; ++word, ++p)
            if (p >= end || *p != *word)
                return false;
        return true;
    }

    bool
    string()
    {
        if (p >= end || *p != '"')
            return false;
        ++p;
        while (p < end) {
            const unsigned char c = static_cast<unsigned char>(*p);
            if (c == '"') {
                ++p;
                return true;
            }
            if (c < 0x20)
                return false; // raw control char
            if (c == '\\') {
                ++p;
                if (p >= end)
                    return false;
                const char e = *p;
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++p;
                        if (p >= end || !std::isxdigit(
                                            static_cast<unsigned char>(*p)))
                            return false;
                    }
                } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                           e != 'f' && e != 'n' && e != 'r' && e != 't') {
                    return false;
                }
            }
            ++p;
        }
        return false; // unterminated
    }

    bool
    number()
    {
        if (p < end && *p == '-')
            ++p;
        if (p >= end || !std::isdigit(static_cast<unsigned char>(*p)))
            return false;
        if (*p == '0') {
            ++p;
        } else {
            while (p < end && std::isdigit(static_cast<unsigned char>(*p)))
                ++p;
        }
        if (p < end && *p == '.') {
            ++p;
            if (p >= end || !std::isdigit(static_cast<unsigned char>(*p)))
                return false;
            while (p < end && std::isdigit(static_cast<unsigned char>(*p)))
                ++p;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            ++p;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            if (p >= end || !std::isdigit(static_cast<unsigned char>(*p)))
                return false;
            while (p < end && std::isdigit(static_cast<unsigned char>(*p)))
                ++p;
        }
        return true;
    }

    bool
    value()
    {
        if (++depth > kMaxDepth)
            return false;
        skipWs();
        if (p >= end)
            return false;
        bool ok = false;
        switch (*p) {
          case '{': {
            ++p;
            skipWs();
            if (p < end && *p == '}') {
                ++p;
                ok = true;
                break;
            }
            for (;;) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (p >= end || *p != ':')
                    return false;
                ++p;
                if (!value())
                    return false;
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                break;
            }
            if (p >= end || *p != '}')
                return false;
            ++p;
            ok = true;
            break;
          }
          case '[': {
            ++p;
            skipWs();
            if (p < end && *p == ']') {
                ++p;
                ok = true;
                break;
            }
            for (;;) {
                if (!value())
                    return false;
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                break;
            }
            if (p >= end || *p != ']')
                return false;
            ++p;
            ok = true;
            break;
          }
          case '"':
            ok = string();
            break;
          case 't':
            ok = literal("true");
            break;
          case 'f':
            ok = literal("false");
            break;
          case 'n':
            ok = literal("null");
            break;
          default:
            ok = number();
            break;
        }
        --depth;
        return ok;
    }
};

} // namespace detail

/** True if @p text is one complete, syntactically valid JSON document. */
inline bool
jsonValid(const std::string &text)
{
    detail::JsonParser parser{text.data(), text.data() + text.size()};
    if (!parser.value())
        return false;
    parser.skipWs();
    return parser.p == parser.end;
}

/** @p snap with only the names that start with @p prefix. */
inline obs::MetricSnapshot
withPrefix(obs::MetricSnapshot snap, const std::string &prefix)
{
    const auto narrow = [&](auto &byName) {
        for (auto it = byName.begin(); it != byName.end();)
            it = it->first.compare(0, prefix.size(), prefix) == 0
                     ? std::next(it)
                     : byName.erase(it);
    };
    narrow(snap.counters);
    narrow(snap.gauges);
    narrow(snap.histograms);
    return snap;
}

} // namespace testutil
} // namespace buddy
