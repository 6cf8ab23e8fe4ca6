/**
 * @file
 * Console table / CSV emitters used by the benchmark harnesses to print
 * paper-style rows and series.
 */

#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

namespace buddy {

/** Simple fixed-column text table with an optional CSV dump. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {}

    /** Append one row (must match the header count). */
    void
    addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    /** Render the table to stdout with aligned columns. */
    void
    print(std::FILE *out = stdout) const
    {
        std::vector<std::size_t> width(headers_.size(), 0);
        for (std::size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &row : rows_)
            for (std::size_t c = 0; c < row.size() && c < width.size(); ++c)
                width[c] = std::max(width[c], row[c].size());

        auto print_row = [&](const std::vector<std::string> &row) {
            for (std::size_t c = 0; c < width.size(); ++c) {
                const std::string &cell = c < row.size() ? row[c] : empty_;
                std::fprintf(out, "%-*s%s", static_cast<int>(width[c]),
                             cell.c_str(),
                             c + 1 == width.size() ? "\n" : "  ");
            }
        };
        print_row(headers_);
        std::size_t total = 0;
        for (auto w : width)
            total += w + 2;
        for (std::size_t i = 0; i + 2 < total; ++i)
            std::fputc('-', out);
        std::fputc('\n', out);
        for (const auto &row : rows_)
            print_row(row);
    }

    /** Column headers (machine-readable export; see obs/report.h). */
    const std::vector<std::string> &headers() const { return headers_; }

    /** All rows, in insertion order. */
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
    std::string empty_;
};

/** printf-style std::string formatter. */
inline std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    char buf[256];
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return std::string(buf);
}

} // namespace buddy
