/**
 * @file
 * Host-side measurement helpers of the perf benchmark: a steady clock,
 * order statistics, an in-memory span log, the process's peak resident
 * memory, the build/environment stamp, and the one-line JSON result.
 *
 * Everything here runs outside the library: the benchmark times calls
 * into each layer's public functions and never reaches inside them.
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "common/types.h"

namespace perfbench {

using buddy::u64;

/** Monotonic host time in nanoseconds. */
inline u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** CPU time consumed so far by every thread of this process, in ns. */
inline u64
cpuNowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<u64>(ts.tv_sec) * 1000000000ull +
           static_cast<u64>(ts.tv_nsec);
}

/** Median of @p v (0 when empty); sorts a copy. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Least element of @p v (0 when empty). */
inline double
least(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/** Element-wise least of @p best and @p v (taken whole when empty);
 *  false when their lengths differ. */
inline bool
keepLeast(std::vector<double> &best, const std::vector<double> &v)
{
    if (best.empty()) {
        best = v;
        return true;
    }
    if (best.size() != v.size())
        return false;
    for (std::size_t i = 0; i < v.size(); ++i)
        best[i] = std::min(best[i], v[i]);
    return true;
}

/** Sum of millisecond steps @p ms, in seconds. */
inline double
totalSeconds(const std::vector<double> &ms)
{
    double sum = 0.0;
    for (const double x : ms)
        sum += x;
    return sum / 1e3;
}

/**
 * Nearest-rank quantile @p q in [0, 1] of @p v (0 when empty); sorts a
 * copy. Nearest-rank keeps integer inputs exact, so percentiles of
 * simulated cycles repeat bit-for-bit.
 */
template <typename T>
T
quantile(std::vector<T> v, double q)
{
    if (v.empty())
        return T{};
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size()) + 0.999999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/** Peak resident set size of this process in MiB (getrusage). */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Online processors. */
inline unsigned
onlineCpus()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1u;
}

/**
 * A fixed probe job that calls nothing in the library: a chain of
 * hashed reads and writes over a 256 KiB table, each mixed word by word
 * into a 128-byte block. Its CPU time shows how fast the CPU it runs on
 * currently executes code: on a shared host, a virtual CPU whose
 * physical core is busy with another guest runs it up to twice as slow.
 */
class CpuProbe
{
  public:
    CpuProbe() : table_(kWords)
    {
        u64 x = 0x9e3779b97f4a7c15ull;
        for (u64 &w : table_)
            w = (x += 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
    }

    /** Least CPU time in ns of @p times runs of the job. */
    u64
    leastNs(unsigned times)
    {
        u64 best = ~0ull;
        for (unsigned k = 0; k < times; ++k)
            best = std::min(best, runOnce());
        return best;
    }

  private:
    u64
    runOnce()
    {
        u64 block[16];
        for (unsigned j = 0; j < 16; ++j)
            block[j] = j * 0x94d049bb133111ebull;
        u64 x = ++round_;
        const u64 t0 = cpuNowNs();
        for (unsigned i = 0; i < kSteps; ++i) {
            x = (x ^ (x >> 31)) * 0xbf58476d1ce4e5b9ull + i;
            u64 &w = table_[x & (kWords - 1)];
            w += x;
            for (unsigned j = 0; j < 16; ++j)
                block[j] = (block[j] ^ (block[j] >> 7) ^ w) *
                           0x94d049bb133111ebull;
        }
        const u64 t1 = cpuNowNs();
        for (unsigned j = 0; j < 16; ++j)
            sink_ ^= block[j];
        return t1 - t0;
    }

    static constexpr u64 kWords = u64{1} << 15; // 256 KiB
    static constexpr unsigned kSteps = 16000;
    std::vector<u64> table_;
    u64 round_ = 0;
    volatile u64 sink_ = 0;
};

/**
 * Runs the whole process on one CPU: the one that currently runs the
 * probe job fastest. pinFastest() probes every CPU the process may use
 * and moves every thread of the process there, so an engine's workers
 * follow; threads started later inherit the CPU. unpinned() runs a
 * call on the original CPU set. The destructor restores that set.
 */
class FastCpu
{
  public:
    FastCpu()
    {
        CPU_ZERO(&all_);
        usable_ = sched_getaffinity(0, sizeof(all_), &all_) == 0;
        pinFastest();
    }

    ~FastCpu()
    {
        if (usable_)
            pinAll(all_);
    }

    FastCpu(const FastCpu &) = delete;
    FastCpu &operator=(const FastCpu &) = delete;

    /** Probe each usable CPU and move the process to the fastest. */
    void
    pinFastest()
    {
        if (!usable_)
            return;
        int best = -1;
        u64 bestNs = ~0ull;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (!CPU_ISSET(cpu, &all_))
                continue;
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            if (sched_setaffinity(0, sizeof(one), &one) != 0)
                continue;
            const u64 ns = probe_.leastNs(kProbeRuns);
            if (ns < bestNs) {
                bestNs = ns;
                best = cpu;
            }
        }
        if (best < 0) {
            usable_ = false;
            pinAll(all_);
            return;
        }
        moves_ += best != cpu_;
        cpu_ = best;
        probeNs_ = bestNs;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(best, &one);
        pinAll(one);
    }

    template <typename F>
    auto
    unpinned(F &&f)
    {
        if (usable_)
            pinAll(all_);
        auto result = f();
        pinFastest();
        return result;
    }

    /** Times pinFastest() chose another CPU than the one before. */
    unsigned moves() const { return moves_; }

    /** The probe job's CPU time on the CPU chosen last, in ns. */
    u64 probeNs() const { return probeNs_; }

  private:
    static constexpr unsigned kProbeRuns = 3;

    /** Set the CPU set of every thread of the process. */
    static void
    pinAll(const cpu_set_t &set)
    {
        DIR *dir = opendir("/proc/self/task");
        if (dir == nullptr) {
            sched_setaffinity(0, sizeof(set), &set);
            return;
        }
        while (const dirent *e = readdir(dir)) {
            const int tid = std::atoi(e->d_name);
            if (tid > 0)
                sched_setaffinity(tid, sizeof(set), &set);
        }
        closedir(dir);
    }

    cpu_set_t all_;
    bool usable_ = false;
    int cpu_ = -1;
    unsigned moves_ = 0;
    u64 probeNs_ = 0;
    CpuProbe probe_;
};

/**
 * One traced interval: name, start, end, the span that caused it
 * (0 = root) and the request (batch) it belongs to.
 */
struct Span
{
    u64 id = 0;
    u64 parent = 0;
    u64 request = 0;
    const char *name = "";
    u64 startNs = 0;
    u64 endNs = 0;
};

/**
 * In-memory span log. Disabled logs record nothing (the untraced run);
 * enabled logs keep every span until save() writes them as a Chrome
 * trace_event file at the end of the run.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when disabled). */
    u64
    begin(const char *name, u64 parent = 0, u64 request = 0)
    {
        if (!enabled_)
            return 0;
        Span s;
        s.id = spans_.size() + 1;
        s.parent = parent;
        s.request = request;
        s.name = name;
        s.startNs = nowNs();
        spans_.push_back(s);
        return s.id;
    }

    /** Close span @p id (no-op for 0). */
    void
    end(u64 id)
    {
        if (id != 0)
            spans_[id - 1].endNs = nowNs();
    }

    std::size_t size() const { return spans_.size(); }

    /** Write the spans as Chrome trace_event JSON; false on I/O error. */
    bool
    save(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        const u64 t0 = spans_.empty() ? 0 : spans_.front().startNs;
        std::fprintf(f, "{\"traceEvents\":[");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                         "{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                         i ? "," : "", s.name,
                         static_cast<double>(s.startNs - t0) / 1e3,
                         static_cast<double>(s.endNs - s.startNs) / 1e3,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.request));
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * The result line: exactly the keys correct, attempted, failed and
 * metrics, metrics in name order, values with all their digits.
 */
inline std::string
resultJson(bool correct, u64 attempted, u64 failed,
           const std::map<std::string, Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto &[name, m] : metrics) {
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

} // namespace perfbench
