#include "obs/metrics.h"

#include "common/check.h"

namespace buddy {
namespace obs {

void
MetricRegistry::checkFresh(const std::string &name, const char *kind) const
{
    const bool clash =
        (kind[0] != 'c' && counters_.count(name) != 0) ||
        (kind[0] != 'g' && gauges_.count(name) != 0) ||
        (kind[0] != 'h' && histograms_.count(name) != 0);
    if (clash) {
        std::fprintf(stderr, "metric \"%s\" re-registered as a %s\n",
                     name.c_str(), kind);
        BUDDY_PANIC("metric name registered under two kinds");
    }
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        checkFresh(name, "counter");
        it = counters_.emplace(name, std::make_unique<Counter>()).first;
    }
    return *it->second;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        checkFresh(name, "gauge");
        it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    }
    return *it->second;
}

LatencyHistogram &
MetricRegistry::histogram(const std::string &name)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        checkFresh(name, "histogram");
        it = histograms_.emplace(name, std::make_unique<LatencyHistogram>())
                 .first;
    }
    return *it->second;
}

MetricSnapshot
MetricRegistry::snapshot() const
{
    MetricSnapshot s;
    for (const auto &[name, c] : counters_)
        s.counters[name] = c->value();
    for (const auto &[name, g] : gauges_)
        s.gauges[name] = g->value();
    for (const auto &[name, h] : histograms_)
        s.histograms[name] = *h;
    return s;
}

} // namespace obs
} // namespace buddy
