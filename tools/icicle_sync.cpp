/**
 * @file
 * icicle-sync: the concurrency-discipline checker.
 *
 *   $ icicle-sync [--dir DIR] [--cycles N] [--json F] [--sarif F]
 *   $ icicle-sync --mutant [--json F] [--sarif F]
 *
 * Arms the lock-order runtime (common/lockorder.hh), then drives
 * every concurrent subsystem in-process so each lock class and each
 * legal nesting is actually exercised:
 *
 *   1. captures a trace store (store writer + fault write hooks),
 *   2. runs a journaled multi-worker sweep (sweep callback lock,
 *      journal writes, fault hooks under the callback lock),
 *   3. runs a live icicled daemon end to end over its Unix socket —
 *      serve, cold sweep, warm (cached) sweep, windowed-TMA query on
 *      the captured store, stats, shutdown — covering the connection
 *      condvar, the in-flight run table, the worker pool's idle
 *      set, the shared-reader map, and StoreReader's ioMutex, with
 *      the fault plan armed (benignly) so its innermost lock shows
 *      up under every outer lock,
 *
 * and dumps the observed lock-acquisition-order graph. Exit 0 when
 * the graph is cycle-free with no rank inversions and no
 * fork-while-holding-locks events; exit 1 with the witness
 * acquisition stacks otherwise; exit 2 on usage or setup errors.
 *
 * --mutant (ICICLE_MUTANTS builds) proves non-vacuity: it acquires
 * two dedicated locks in both orders and requires the checker to
 * report the exact sync.mutant.a <-> sync.mutant.b cycle and the
 * rank inversion with both witness stacks; an escape exits 1, and a
 * build without the hooks exits 2 (the icicle-prove mutants
 * contract).
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/sarif.hh"
#include "common/argparse.hh"
#include "common/lockorder.hh"
#include "common/logging.hh"
#include "common/sync.hh"
#include "fault/atomic_file.hh"
#include "fault/fault.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace icicle;

namespace
{

constexpr char kUsage[] =
    "usage: icicle-sync [options]\n"
    "\n"
    "drive every concurrent subsystem (store capture, journaled\n"
    "multi-worker sweep, live icicled daemon end-to-end), then dump\n"
    "and check the observed lock-acquisition-order graph\n"
    "\n"
    "  --dir DIR     working directory for the drive's artifacts\n"
    "                (socket, cache, store, journal; default\n"
    "                icicle-sync.tmp — keep it short: the daemon\n"
    "                socket lives inside)\n"
    "  --cycles N    simulated cycles per drive point (default\n"
    "                200000)\n"
    "  --json FILE   write the lock-order graph as JSON\n"
    "  --sarif FILE  write SYNC-0xx findings as SARIF 2.1.0\n"
    "  --mutant      run the seeded rank-inversion mutant instead of\n"
    "                the drive; the exact cycle must be caught\n"
    "                (requires an -DICICLE_MUTANTS=ON build)\n"
    "\n"
    "exit status: 0 clean (or mutant caught), 1 violations (or\n"
    "mutant escaped), 2 usage/setup error\n";

struct Args
{
    std::string dir = "icicle-sync.tmp";
    std::string jsonPath;
    std::string sarifPath;
    u64 cycles = 200'000;
    bool mutant = false;
};

/** Run the end-to-end concurrency drive; returns the daemon stats
 *  text (sanity evidence that every request type was served). */
std::string
runDrive(const Args &args)
{
    namespace fs = std::filesystem;
    fs::create_directories(args.dir);

    // A benignly-armed fault plan (a job-fail clause no drive index
    // reaches): every write hook and job hook now locks fault.plan,
    // so the innermost lock class appears under each outer lock in
    // the graph instead of being short-circuited away.
    setFaultSpec("fail@job#999999999");

    // 1. Store capture: StoreWriter + fault StoreWrite hooks.
    const std::string store_path = args.dir + "/sync-drive.icst";
    {
        std::unique_ptr<Core> core =
            makeSweepCore("rocket", CounterArch::AddWires,
                          buildWorkload("vvadd"));
        const TraceSpec spec = TraceSpec::tmaBundle(*core);
        streamTraceToStore(*core, spec, args.cycles, store_path);
    }

    // 2. Journaled multi-worker sweep: the callback lock serializes
    // journal appends (fault JournalWrite hooks fire under it).
    {
        GridSpec grid;
        grid.cores = {"rocket"};
        grid.workloads = {"vvadd", "towers"};
        grid.maxCycles = args.cycles;
        SweepOptions options;
        options.workers = 2;
        options.journalPath = args.dir + "/sync-drive.icjn";
        options.onResult = [](const SweepResult &) {};
        runSweep(grid, options);
    }

    // 3. Live daemon, end to end over its socket.
    ServerOptions server_options;
    server_options.socketPath = args.dir + "/sync.sock";
    server_options.cacheDir = args.dir + "/cache";
    server_options.shards = 2;
    IcicleServer server(server_options);
    std::thread daemon([&server] { server.run(); });

    std::string stats_text;
    try {
        ServeClient client(server_options.socketPath);
        client.ping();
        SweepQuery query;
        query.cores = {"rocket"};
        query.workloads = {"vvadd", "towers"};
        query.maxCycles = args.cycles;
        query.format = "csv";
        client.sweep(query); // cold: flight -> pool -> publish
        client.sweep(query); // warm: the lock-free cache-hit path
        WindowQuery window;
        window.storePath = store_path;
        window.begin = args.cycles / 4;
        window.end = args.cycles / 2;
        window.coreWidth = 1;
        client.windowTma(window); // shared reader + store ioMutex
        stats_text = client.stats();
        client.shutdown();
    } catch (...) {
        server.stop();
        daemon.join();
        setFaultSpec("");
        throw;
    }
    daemon.join();
    setFaultSpec("");
    return stats_text;
}

int
report(const Args &args, bool expect_mutant)
{
    const lockorder::LockOrderReport graph =
        lockorder::lockOrderReport();
    if (!args.jsonPath.empty()) {
        writeFileAtomic(args.jsonPath, graph.toJson() + "\n",
                        FaultSite::ReportWrite);
    }
    if (!args.sarifPath.empty()) {
        writeSarif("icicle-sync",
                   {{"lock-order", graph.toLintReport()}},
                   args.sarifPath);
    }
    std::fputs(graph.format().c_str(), stdout);

    if (expect_mutant) {
        // The seeded inversion must be reported as the *exact*
        // mutant cycle with a witness stack per edge, plus the rank
        // inversion carrying both acquisition stacks.
        bool cycle_caught = false;
        bool inversion_caught = false;
        const std::vector<std::string> expected_cycle = {
            lockorder::kMutantLockA, lockorder::kMutantLockB};
        for (const auto &violation : graph.violations) {
            if (violation.kind == "cycle" &&
                violation.classes == expected_cycle &&
                violation.witnesses.size() == 2)
                cycle_caught = true;
            if (violation.kind == "rank-inversion" &&
                violation.witnesses.size() == 2)
                inversion_caught = true;
        }
        if (cycle_caught && inversion_caught) {
            std::printf("mutant: rank inversion caught with the "
                        "exact %s <-> %s cycle and both witness "
                        "stacks\n",
                        lockorder::kMutantLockA,
                        lockorder::kMutantLockB);
            return 0;
        }
        std::printf("mutant: ESCAPED (cycle %s, inversion %s)\n",
                    cycle_caught ? "caught" : "missed",
                    inversion_caught ? "caught" : "missed");
        return 1;
    }
    if (graph.clean()) {
        std::printf("lock-order graph is clean: %zu classes, %zu "
                    "observed orderings, no cycles, no rank "
                    "inversions, no fork violations\n",
                    graph.nodes.size(), graph.edges.size());
        return 0;
    }
    std::printf("lock-order violations: %zu (see above)\n",
                graph.violations.size());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        for (int i = 1; i < argc; i++) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc) {
                    std::exit(cli::missingValue(arg, kUsage));
                }
                return argv[++i];
            };
            if (cli::isHelp(arg))
                return cli::usageExit(stdout, kUsage);
            if (arg == "--dir") {
                args.dir = value();
            } else if (arg == "--json") {
                args.jsonPath = value();
            } else if (arg == "--sarif") {
                args.sarifPath = value();
            } else if (arg == "--cycles") {
                args.cycles = cli::parseNumber<u64>(arg, value());
            } else if (arg == "--mutant") {
                args.mutant = true;
            } else {
                return cli::unknownOption(arg, kUsage);
            }
        }

        lockorder::setLockOrderEnabled(true);
        lockorder::resetLockOrder();
        if (args.mutant) {
            lockorder::runRankInversionMutant();
            return report(args, true);
        }
        const std::string stats = runDrive(args);
        std::fputs(stats.c_str(), stdout);
        return report(args, false);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    }
}
