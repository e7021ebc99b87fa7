/**
 * @file
 * icicled: the long-running experiment service and its client CLI.
 *
 *   $ icicled serve --socket /tmp/ic.sock --cache-dir /tmp/ic.cache \
 *       --shards 4
 *   $ icicled sweep --socket /tmp/ic.sock --cores rocket \
 *       --workloads vvadd,qsort --format csv
 *   $ icicled window --socket /tmp/ic.sock --store run.icst \
 *       --window 1000:500000 --width 3
 *   $ icicled stats --socket /tmp/ic.sock
 *   $ icicled ping --socket /tmp/ic.sock
 *   $ icicled shutdown --socket /tmp/ic.sock
 *
 * `serve` runs the daemon in the foreground: simulation jobs run on
 * a forked worker-process pool and results memoise in a
 * content-addressed disk cache, so repeated grids are served without
 * simulating. `sweep` submits a grid and prints the daemon's report,
 * byte-identical to what a direct `icicle-sweep` run of the same
 * grid prints. The socket defaults to $ICICLED_SOCKET when set.
 *
 * Exit status: 0 ok; `sweep` exits 1 when any point failed (like
 * icicle-sweep); 2 usage error, connection failure, or daemon-side
 * request error.
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "tma/tma.hh"

using namespace icicle;

namespace
{

constexpr char kUsage[] =
    "usage: icicled <command> [options]\n"
    "\n"
    "common:\n"
    "  --socket PATH     daemon socket (default: $ICICLED_SOCKET)\n"
    "\n"
    "  serve [--cache-dir DIR] [--shards N] [--job-timeout MS]\n"
    "        [--max-conns N] [--max-queue N] [--idle-timeout MS]\n"
    "      run the daemon in the foreground: each cold run goes to\n"
    "      the first idle one of N worker processes (default 2),\n"
    "      results memoise in the content-addressed cache under DIR\n"
    "      (default <socket>.cache); a worker that sends no reply\n"
    "      within MS (default 300000, 0 = forever) is killed and\n"
    "      respawned; --max-conns caps connections and --max-queue\n"
    "      caps runs on the miss path at N x workers (excess load\n"
    "      is shed with an Overloaded retry hint, default 0 =\n"
    "      unbounded); --idle-timeout drops connections with no\n"
    "      complete frame within MS (default 0 = wait forever)\n"
    "  sweep [--cores A,B] [--workloads A,B] [--archs A,B]\n"
    "        [--cycles N] [--seed N] [--format text|csv|json]\n"
    "      submit a sweep grid; the printed report is\n"
    "      byte-identical to a direct icicle-sweep run\n"
    "  window --store F.icst --window A:B [--width N]\n"
    "      windowed temporal TMA served from the store's block\n"
    "      footers\n"
    "  stats\n"
    "      print the daemon's counters (one 'key: value' per line)\n"
    "  ping\n"
    "      round-trip a frame; exit 0 when the daemon answers\n"
    "  shutdown\n"
    "      ask the daemon to exit and wait for the acknowledgment\n"
    "\n"
    "client resilience (sweep/window/stats/ping/shutdown):\n"
    "  --timeout MS      per-attempt reply deadline (default 30000,\n"
    "                    0 = wait forever)\n"
    "  --deadline MS     total deadline across retries (default\n"
    "                    120000, 0 = none)\n"
    "  --retries N       retry budget on idempotent-safe failures:\n"
    "                    shed (Overloaded), torn/CRC-failed reply,\n"
    "                    reset, attempt timeout (default 4;\n"
    "                    shutdown never retries)\n";

/** Common flag state across subcommands. */
struct Args
{
    std::string socket;
    ServerOptions server;
    ClientOptions client;
    SweepQuery query;
    std::string store;
    bool hasWindow = false;
    u64 begin = 0, end = 0;
    u32 width = 1;
};

/** Parse flags after the subcommand; exits via *status on error. */
bool
parseArgs(int argc, char **argv, int first, Args &args, int *status)
{
    if (const char *env = std::getenv("ICICLED_SOCKET"))
        args.socket = env;
    bool archs_set = false;
    for (int i = first; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                *status = cli::missingValue(arg, kUsage);
                return {};
            }
            return argv[++i];
        };
        *status = -1;
        if (cli::isHelp(arg)) {
            *status = cli::usageExit(stdout, kUsage);
            return false;
        } else if (arg == "--socket") {
            args.socket = value();
        } else if (arg == "--cache-dir") {
            args.server.cacheDir = value();
        } else if (arg == "--shards") {
            args.server.shards = cli::parseNumber<u32>(arg, value());
        } else if (arg == "--job-timeout") {
            args.server.jobTimeoutMs =
                cli::parseNumber<u32>(arg, value());
        } else if (arg == "--max-conns") {
            args.server.maxConns = cli::parseNumber<u32>(arg, value());
        } else if (arg == "--max-queue") {
            args.server.maxQueue = cli::parseNumber<u32>(arg, value());
        } else if (arg == "--idle-timeout") {
            args.server.idleTimeoutMs =
                cli::parseNumber<u32>(arg, value());
        } else if (arg == "--timeout") {
            args.client.attemptTimeoutMs =
                cli::parseNumber<u32>(arg, value());
        } else if (arg == "--deadline") {
            args.client.totalDeadlineMs =
                cli::parseNumber<u32>(arg, value());
        } else if (arg == "--retries") {
            args.client.maxRetries =
                cli::parseNumber<u32>(arg, value());
        } else if (arg == "--cores") {
            for (const std::string &core : cli::splitList(value()))
                args.query.cores.push_back(core);
        } else if (arg == "--workloads") {
            for (const std::string &w : cli::splitList(value()))
                args.query.workloads.push_back(w);
        } else if (arg == "--archs") {
            if (!archs_set)
                args.query.archs.clear();
            archs_set = true;
            for (const std::string &a : cli::splitList(value()))
                args.query.archs.push_back(parseCounterArch(a));
        } else if (arg == "--cycles") {
            args.query.maxCycles = cli::parseNumber<u64>(arg, value());
        } else if (arg == "--seed") {
            args.query.seed = cli::parseNumber<u64>(arg, value());
        } else if (arg == "--format") {
            args.query.format = value();
        } else if (arg == "--store") {
            args.store = value();
        } else if (arg == "--window") {
            const std::string text = value();
            const auto colon = text.find(':');
            if (colon == std::string::npos) {
                std::fprintf(stderr,
                             "--window expects A:B, got '%s'\n",
                             text.c_str());
                *status = cli::usageExit(stderr, kUsage);
                return false;
            }
            args.begin =
                cli::parseNumber<u64>(arg, text.substr(0, colon));
            args.end =
                cli::parseNumber<u64>(arg, text.substr(colon + 1));
            args.hasWindow = true;
        } else if (arg == "--width") {
            args.width = cli::parseNumber<u32>(arg, value());
        } else {
            *status = cli::unknownOption(arg, kUsage);
            return false;
        }
        if (*status >= 0) // a value() call failed
            return false;
    }
    if (args.socket.empty()) {
        std::fprintf(stderr,
                     "no socket: pass --socket or set "
                     "$ICICLED_SOCKET\n");
        *status = cli::usageExit(stderr, kUsage);
        return false;
    }
    return true;
}

int
cmdServe(const Args &args)
{
    ServerOptions options = args.server;
    options.socketPath = args.socket;
    if (options.cacheDir.empty())
        options.cacheDir = args.socket + ".cache";
    IcicleServer server(options);
    std::fprintf(stderr,
                 "icicled: serving on %s (%u workers, cache %s)\n",
                 options.socketPath.c_str(), options.shards,
                 options.cacheDir.c_str());
    server.run();
    return 0;
}

int
cmdSweep(Args &args)
{
    if (args.query.workloads.empty()) {
        std::fprintf(stderr, "no workloads selected\n");
        return cli::usageExit(stderr, kUsage);
    }
    if (args.query.cores.empty())
        args.query.cores.push_back("rocket");
    ServeClient client(args.socket, args.client);
    const SweepReply reply = client.sweep(args.query);
    std::fputs(reply.report.c_str(), stdout);
    return reply.allOk ? 0 : 1;
}

int
cmdWindow(const Args &args)
{
    if (args.store.empty() || !args.hasWindow) {
        std::fprintf(stderr,
                     "window needs --store and --window A:B\n");
        return cli::usageExit(stderr, kUsage);
    }
    ServeClient client(args.socket, args.client);
    WindowQuery query;
    query.storePath = args.store;
    query.begin = args.begin;
    query.end = args.end;
    query.coreWidth = args.width;
    const WindowReply reply = client.windowTma(query);
    std::ostringstream title;
    title << "cycles " << args.begin << ".." << args.end << " of "
          << args.store;
    std::fputs(formatTmaReport(reply.tma, title.str()).c_str(),
               stdout);
    std::printf("blocks decoded by the daemon: %llu\n",
                static_cast<unsigned long long>(
                    reply.blocksDecoded));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return cli::usageExit(stderr, kUsage);
    const std::string command = argv[1];
    if (cli::isHelp(command) || command == "help")
        return cli::usageExit(stdout, kUsage);

    Args args;
    int status = 2;
    try {
        // Parsing sits inside the try: parseCounterArch and the
        // number parsers raise on bad values.
        if (!parseArgs(argc, argv, 2, args, &status))
            return status;
        if (command == "serve")
            return cmdServe(args);
        if (command == "sweep")
            return cmdSweep(args);
        if (command == "window")
            return cmdWindow(args);
        if (command == "stats") {
            ServeClient client(args.socket, args.client);
            std::fputs(client.stats().c_str(), stdout);
            return 0;
        }
        if (command == "ping") {
            ServeClient client(args.socket, args.client);
            client.ping();
            std::printf("pong\n");
            return 0;
        }
        if (command == "shutdown") {
            ServeClient client(args.socket, args.client);
            client.shutdown();
            return 0;
        }
        std::fprintf(stderr, "unknown command: %s\n",
                     command.c_str());
        return cli::usageExit(stderr, kUsage);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    }
}
