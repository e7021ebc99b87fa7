/**
 * @file
 * Order statistics for the benchmark reporter.
 *
 * A tail percentile estimated from a handful of samples beyond it is
 * noise, so the reporter refuses one: guardedPercentile() fails the
 * run unless at least kMinBeyond samples lie beyond the requested
 * percentile, instead of printing an unsupported tail.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench
{

/** Samples a reported percentile needs beyond it. */
constexpr std::size_t kMinBeyond = 10;

/** Median (mean of the middle two for even counts); 0 when empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank index of percentile p (0 < p < 1) among n sorted
 * samples: the smallest index whose rank covers p * n. n must be > 0.
 */
std::size_t percentileIndex(std::size_t n, double p);

/** Samples strictly beyond the nearest-rank percentile position. */
std::size_t samplesBeyond(std::size_t n, double p);

/** Smallest sample count that supports percentile p. */
std::size_t samplesNeeded(double p);

/**
 * Nearest-rank percentile that refuses an unsupported tail: fatal()
 * (the run fails) when fewer than kMinBeyond samples lie beyond it.
 * `what` names the series in the error.
 */
double guardedPercentile(std::vector<double> values, double p,
                         const std::string &what);

/** Geometric mean of positive values; 0 when empty. */
double geomean(const std::vector<double> &values);

/**
 * Indices of the faster half (rounded up) of a run's windows, given
 * each window's time per op, fastest first. On a shared host, other
 * tenants slow every CPU-bound step in episodes lasting seconds; the
 * faster half of a run's windows measures the program, the slower
 * half mostly measures the neighbours.
 */
std::vector<std::size_t> fasterHalf(const std::vector<double> &costs);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
