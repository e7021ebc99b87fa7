/**
 * @file
 * icicle-sweep: run a grid of TMA experiments on a worker pool.
 *
 * The grid is the cross product cores x workloads x counter
 * architectures, given either by flags or by a small text spec file;
 * each point is an independent simulation, so the campaign
 * parallelizes across --workers threads. Aggregated rows come out in
 * grid order regardless of completion order; without --timing the
 * output is byte-identical across worker counts.
 *
 *   $ icicle-sweep --cores rocket,boom-large --workloads qsort,towers
 *   $ icicle-sweep --suite spec --cores boom-large --workers 8
 *   $ icicle-sweep --spec campaign.sweep --format csv --out rows.csv
 *   $ icicle-sweep --list             # axis values
 *
 * Spec file format (one `key = value` per line, '#' comments):
 *
 *   cores     = rocket, boom-large
 *   workloads = qsort, towers, coremark
 *   archs     = scalar, addwires
 *   cycles    = 2000000
 *   trace     = on
 *
 * Exit status: 0 all points ok, 1 any point failed or timed out,
 * 2 usage error.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "fault/atomic_file.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

using namespace icicle;

namespace
{

constexpr char kUsage[] =
        "usage: icicle-sweep [options]\n"
        "\n"
        "grid axes (comma-separated; repeatable):\n"
        "  --cores A,B       core configs (default: rocket)\n"
        "  --workloads A,B   workload names\n"
        "  --suite NAME      add every workload of a suite\n"
        "                    (micro, composite, spec)\n"
        "  --archs A,B       counter architectures\n"
        "                    (default: addwires)\n"
        "  --cycles N        per-point cycle budget\n"
        "                    (default: 80000000)\n"
        "  --trace           also capture + analyze the TMA trace\n"
        "                    bundle per point\n"
        "  --trace-out DIR   write each point's trace as a\n"
        "                    compressed .icst store into DIR\n"
        "                    (implies --trace; byte-identical\n"
        "                    across worker counts)\n"
        "  --spec FILE       read axes from a spec file (flags\n"
        "                    override)\n"
        "\n"
        "execution:\n"
        "  --workers N       worker threads (default: 1)\n"
        "  --retries N       attempts per job (default: 2)\n"
        "  --timeout SEC     per-job wall-clock timeout\n"
        "                    (default: none)\n"
        "  --journal FILE    append a crash-safe record per\n"
        "                    completed point to FILE\n"
        "  --resume          replay --journal first and re-run only\n"
        "                    missing/failed points; the report is\n"
        "                    byte-identical to an uninterrupted run\n"
        "\n"
        "output:\n"
        "  --format F        text | csv | json (default: text)\n"
        "  --timing          include wall-times (nondeterministic)\n"
        "  --progress        print one line per completed job\n"
        "  --out FILE        write the report to FILE\n"
        "  --list            print known axis values and exit\n";

int
usage(FILE *out)
{
    return cli::usageExit(out, kUsage);
}

/** Repeats are kept here: GridSpec::expand() drops them. */
void
append(std::vector<std::string> &list,
       const std::vector<std::string> &items)
{
    list.insert(list.end(), items.begin(), items.end());
}

/** Parse the `key = value` spec file into the grid. */
void
loadSpecFile(const std::string &path, GridSpec &grid)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open sweep spec: ", path);
    std::string line;
    u32 line_no = 0;
    while (std::getline(in, line)) {
        line_no++;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        if (line.find_first_not_of(" \t") == std::string::npos)
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal(path, ":", line_no, ": expected 'key = value'");
        auto trim = [](std::string text) {
            const auto begin = text.find_first_not_of(" \t");
            const auto end = text.find_last_not_of(" \t");
            return begin == std::string::npos
                       ? std::string()
                       : text.substr(begin, end - begin + 1);
        };
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key == "cores") {
            append(grid.cores, cli::splitList(value));
        } else if (key == "workloads") {
            append(grid.workloads, cli::splitList(value));
        } else if (key == "suite") {
            for (const std::string &suite : cli::splitList(value))
                append(grid.workloads, workloadNames(suite));
        } else if (key == "archs") {
            grid.counterArchs.clear();
            for (const std::string &arch : cli::splitList(value))
                grid.counterArchs.push_back(parseCounterArch(arch));
        } else if (key == "cycles") {
            grid.maxCycles = cli::parseNumber<u64>(
                path + ":" + std::to_string(line_no) + ": cycles", value);
        } else if (key == "trace") {
            grid.withTrace = value == "on" || value == "true" ||
                             value == "1";
        } else {
            fatal(path, ":", line_no, ": unknown key '", key, "'");
        }
    }
}

/**
 * Create-or-fail the --trace-out directory before the grid expands:
 * a bad path must be a usage error (exit 2) up front, not N failed
 * store writes at campaign completion time.
 */
void
validateTraceOutDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("cannot create --trace-out directory ", dir, ": ",
              ec.message());
    if (!std::filesystem::is_directory(dir))
        fatal("--trace-out path is not a directory: ", dir);
    const std::string probe = dir + "/.icicle-write-probe";
    {
        std::ofstream test(probe, std::ios::binary);
        if (!test)
            fatal("--trace-out directory is not writable: ", dir);
    }
    std::filesystem::remove(probe, ec);
}

void
listAxes()
{
    std::printf("core configs:\n");
    for (const std::string &name : sweepCoreNames())
        std::printf("  %s\n", name.c_str());
    std::printf("counter architectures:\n"
                "  scalar\n  addwires\n  distributed\n");
    for (const char *suite : {"micro", "composite", "spec"}) {
        std::printf("workloads (%s):\n", suite);
        for (const std::string &name : workloadNames(suite))
            std::printf("  %s\n", name.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    GridSpec grid;
    SweepOptions options;
    std::string format = "text";
    std::string out_path;
    bool timing = false;
    bool progress = false;
    bool archs_set = false;

    // Spec files load first so flags can override; remember the path
    // and defer parsing until all flags are read.
    std::string spec_path;
    std::vector<std::string> flag_cores, flag_workloads, flag_suites,
        flag_archs;

    try {
        for (int i = 1; i < argc; i++) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    std::exit(cli::missingValue(arg, kUsage));
                return argv[++i];
            };
            if (arg == "--cores") {
                append(flag_cores, cli::splitList(value()));
            } else if (arg == "--workloads") {
                append(flag_workloads, cli::splitList(value()));
            } else if (arg == "--suite") {
                append(flag_suites, cli::splitList(value()));
            } else if (arg == "--archs") {
                append(flag_archs, cli::splitList(value()));
                archs_set = true;
            } else if (arg == "--cycles") {
                grid.maxCycles = cli::parseNumber<u64>(arg, value());
            } else if (arg == "--trace") {
                grid.withTrace = true;
            } else if (arg == "--trace-out") {
                options.traceOutDir = value();
                grid.withTrace = true;
            } else if (arg == "--spec") {
                spec_path = value();
            } else if (arg == "--workers") {
                options.workers =
                    cli::parseNumber<u32>(arg, value());
            } else if (arg == "--retries") {
                options.maxAttempts =
                    cli::parseNumber<u32>(arg, value());
            } else if (arg == "--timeout") {
                options.timeoutSec = cli::parseNumber<double>(arg, value());
            } else if (arg == "--journal") {
                options.journalPath = value();
            } else if (arg == "--resume") {
                options.resume = true;
            } else if (arg == "--format") {
                format = value();
            } else if (arg == "--timing") {
                timing = true;
            } else if (arg == "--progress") {
                progress = true;
            } else if (arg == "--out") {
                out_path = value();
            } else if (arg == "--list") {
                listAxes();
                return 0;
            } else if (cli::isHelp(arg)) {
                return usage(stdout);
            } else {
                return cli::unknownOption(arg, kUsage);
            }
        }
        if (!isSweepFormat(format)) {
            std::fprintf(stderr, "unknown format: %s\n", format.c_str());
            return usage(stderr);
        }
        if (options.resume && options.journalPath.empty()) {
            std::fprintf(stderr, "--resume requires --journal\n");
            return usage(stderr);
        }

        if (!options.traceOutDir.empty())
            validateTraceOutDir(options.traceOutDir);
        if (!spec_path.empty())
            loadSpecFile(spec_path, grid);
        append(grid.cores, flag_cores);
        append(grid.workloads, flag_workloads);
        for (const std::string &suite : flag_suites)
            append(grid.workloads, workloadNames(suite));
        if (archs_set) {
            grid.counterArchs.clear();
            for (const std::string &arch : flag_archs)
                grid.counterArchs.push_back(parseCounterArch(arch));
        }
        if (grid.cores.empty())
            grid.cores.push_back("rocket");
        if (grid.workloads.empty()) {
            std::fprintf(stderr, "no workloads selected\n");
            return usage(stderr);
        }

        // Validate axis values up front: a typo should be a usage
        // error before any simulation starts, not N failed rows.
        checkGridNames(grid, " (try icicle-sweep --list)");

        if (progress) {
            options.onResult = [](const SweepResult &r) {
                std::fprintf(stderr, "[%s] %s (%llu cycles%s)\n",
                             sweepStatusName(r.status),
                             r.label.c_str(),
                             static_cast<unsigned long long>(
                                 r.cycles),
                             r.attempts > 1 ? ", retried" : "");
            };
        }

        const std::vector<SweepResult> results =
            runSweep(grid, options);

        const std::string report =
            formatSweepReport(results, format, timing);

        if (out_path.empty()) {
            std::fputs(report.c_str(), stdout);
        } else {
            // Crash-atomic tmp+rename, except onto non-regular
            // targets (/dev/null, FIFOs) where rename is wrong.
            std::error_code ec;
            const auto st = std::filesystem::status(out_path, ec);
            if (!ec && std::filesystem::exists(st) &&
                !std::filesystem::is_regular_file(st)) {
                std::ofstream out(out_path);
                if (!out)
                    fatal("cannot open output file: ", out_path);
                out << report;
            } else {
                writeFileAtomic(out_path, report,
                                FaultSite::ReportWrite);
            }
        }

        for (const SweepResult &r : results) {
            if (r.status != SweepStatus::Ok)
                return 1;
        }
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    }
}
