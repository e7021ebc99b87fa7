/**
 * @file
 * perfbench: one run of one repository-benchmark workload.
 *
 *   $ perfbench sweep-k3 --seed 1 --seconds 30 --trace 0 \
 *       --digests perfbench/digests.txt --work .bench_run
 *   $ perfbench serve-mix --seed 1 --seconds 30 --trace 1 \
 *       --icicled .bench_build/perfbench/icicled \
 *       --digests perfbench/digests.txt --work .bench_run \
 *       --spans .bench_run/spans.jsonl
 *   $ perfbench digests --work .bench_run > perfbench/digests.txt
 *
 * Prints one JSON object as the last line of stdout:
 * {"correct", "attempted", "failed", "metrics"}, where metrics maps
 * the name of each end-to-end metric (--trace 0) or each per-layer
 * metric the workload touches (--trace 1) to its value. run.py adds
 * the units and the order from BENCHMARK.json. Progress and a human
 * summary go to stderr.
 *
 * Exit status: 0 when every output checked out and no operation
 * failed; 1 otherwise, or when the run could not produce a result
 * (then nothing is printed); 2 on a usage error.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "bench.hh"
#include "common/logging.hh"

using namespace perfbench;

namespace
{

constexpr char kUsage[] =
    "usage: perfbench <sweep-k3|sweep-traced|serve-mix> --seed N\n"
    "                 --seconds S --trace 0|1 --digests FILE\n"
    "                 --work DIR [--icicled BIN] [--spans FILE]\n"
    "       perfbench digests --work DIR\n";

int
usage()
{
    std::fputs(kUsage, stderr);
    return 2;
}

/** Shortest text that reads back as exactly `value`. */
std::string
number(double value)
{
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    return std::string(buf, end);
}

/** Print the result line; fatal() (printing nothing) when a metric
 * is not finite. */
void
printResult(const RunResult &result)
{
    std::string line = "{\"correct\": ";
    line += result.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    const char *sep = "\"";
    for (const auto &[name, value] : result.metrics) {
        if (!std::isfinite(value))
            icicle::fatal("metric '", name, "' is not finite");
        line += sep + name + "\": " + number(value);
        sep = ", \"";
    }
    line += "}}\n";
    std::fputs(line.c_str(), stdout);
    std::fflush(stdout);
}

/** This run's private scratch directory, removed on every exit path
 * that unwinds. */
class WorkDir
{
  public:
    explicit WorkDir(const std::string &path) : dir(path)
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }
    ~WorkDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    const std::string &path() const { return dir; }

  private:
    std::string dir;
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    Options opts;
    opts.workload = argv[1];
    std::string work_root;
    for (int i = 2; i < argc; i++) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        try {
            if (arg == "--seed")
                opts.seed = std::stoull(value);
            else if (arg == "--seconds")
                opts.seconds = std::stod(value);
            else if (arg == "--trace")
                opts.trace = std::stoi(value) != 0;
            else if (arg == "--icicled")
                opts.icicled = value;
            else if (arg == "--digests")
                opts.digests = value;
            else if (arg == "--work")
                work_root = value;
            else if (arg == "--spans")
                opts.spansPath = value;
            else
                return usage();
        } catch (const std::exception &) {
            return usage();
        }
    }
    if (work_root.empty() || opts.seconds <= 0)
        return usage();

    try {
        if (opts.workload == "digests") {
            const WorkDir work(work_root + "/digests-" +
                               std::to_string(::getpid()));
            return printSweepDigests(work.path());
        }
        if (opts.digests.empty())
            return usage();
        const WorkDir work(work_root + "/" + opts.workload + "-s" +
                           std::to_string(opts.seed) + "-" +
                           std::to_string(::getpid()));
        opts.workDir = work.path();
        RunResult result;
        if (opts.workload == "sweep-k3" || opts.workload == "sweep-traced")
            result = runSweepBench(opts);
        else if (opts.workload == "serve-mix")
            result = runServeBench(opts);
        else
            return usage();
        printResult(result);
        return result.correct && result.failed == 0 ? 0 : 1;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 1;
    }
}
