#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    if (values.size() % 2 == 1)
        return values[mid];
    return (values[mid - 1] + values[mid]) / 2;
}

std::size_t
percentileIndex(std::size_t n, double p)
{
    // The epsilon keeps p * n == 990.0000000001 from rounding up a
    // whole rank (0.99 * 1000 is not exact in binary).
    const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
    const std::size_t index =
        rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return std::min(index, n - 1);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - 1 - percentileIndex(n, p);
}

std::size_t
samplesNeeded(double p)
{
    std::size_t n = kMinBeyond + 1;
    while (samplesBeyond(n, p) < kMinBeyond)
        n++;
    return n;
}

double
guardedPercentile(std::vector<double> values, double p,
                  const std::string &what)
{
    const std::size_t beyond = samplesBeyond(values.size(), p);
    if (beyond < kMinBeyond)
        icicle::fatal(what, ": p", p * 100, " has ", beyond,
                      " samples beyond it (", values.size(),
                      " samples, needs ", kMinBeyond,
                      "); refusing an unsupported tail");
    std::sort(values.begin(), values.end());
    return values[percentileIndex(values.size(), p)];
}

std::vector<std::size_t>
fasterHalf(const std::vector<double> &costs)
{
    std::vector<std::size_t> order(costs.size());
    for (std::size_t i = 0; i < order.size(); i++)
        order[i] = i;
    // Stable: equal costs keep window order, so the pick is
    // deterministic.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return costs[a] < costs[b];
                     });
    order.resize((costs.size() + 1) / 2);
    return order;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double value : values)
        log_sum += std::log(value);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace perfbench
