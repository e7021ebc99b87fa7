/**
 * @file
 * Shared pieces of the repository benchmark (perfbench): run options,
 * the result every workload returns, and small host helpers (digests,
 * peak RSS, timing).
 *
 * One perfbench process runs one workload once. With tracing off it
 * measures the end-to-end metrics; with tracing on it records spans
 * around the calls into each layer and reports the per-layer metrics.
 * Both modes check every output against a direct computation or a
 * pinned digest, and count operations attempted and failed. Metrics
 * are reported by name only: BENCHMARK.json owns their order and
 * units, and run.py applies them.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/types.hh"

namespace perfbench
{

using icicle::u32;
using icicle::u64;
using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `since`. */
inline double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

/** Seconds since the process-wide span epoch (span timestamps). */
double nowSeconds();

struct Options
{
    std::string workload;
    u64 seed = 1;
    /** Length of the timed phase. */
    double seconds = 10;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** The icicled binary serve-mix starts. */
    std::string icicled;
    /** Pinned output digests (digests.txt). */
    std::string digests;
    /** Private scratch directory of this run (removed at exit). */
    std::string workDir;
    /** Where a traced run writes its spans ("" = nowhere). */
    std::string spansPath;
};

/** What one run reports. */
struct RunResult
{
    /** Every checked output matched. */
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    /** Metric name -> value; a layer the workload does not touch is
     * left out. */
    std::map<std::string, double> metrics;
};

/** FNV-1a 64 of a byte string, as 16 hex digits. */
std::string digestHex(const std::string &bytes);

/** digestHex of a file's contents; fatal() if unreadable. */
std::string fileDigest(const std::string &path);

/**
 * Pinned digests: lines "<workload> <output> <hex>"; '#' comments.
 * Keyed "<workload> <output>".
 */
std::map<std::string, std::string> loadDigests(const std::string &path);

/** Peak resident set of this process (MiB). */
double selfPeakRssMb();

/** VmHWM of a live process (MiB); 0 when it cannot be read. */
double processPeakRssMb(pid_t pid);

/** Child pids of a live process (every thread's children). */
std::vector<pid_t> childPids(pid_t pid);

RunResult runSweepBench(const Options &options);
RunResult runServeBench(const Options &options);

/** Print digests.txt content for the sweep workloads (pinning). */
int printSweepDigests(const std::string &workDir);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
