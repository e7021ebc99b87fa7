/**
 * @file
 * icicle-chaos: the serving-path robustness checker.
 *
 *   $ icicle-chaos [--seed N] [--episodes E] [--clients C] ...
 *   $ icicle-chaos --overload --max-conns 2 --clients 6
 *
 * Runs a live icicled daemon in-process plus N concurrent client
 * threads under a seeded randomized schedule of network-level
 * faults (conn-reset@accept/reply, stall@read/write, torn-frame@
 * reply, kill@worker), or — with --overload — an admission-gate
 * drill with more clients than --max-conns. Asserts the robustness
 * invariants (see serve/chaos.hh): accepted replies byte-identical
 * to direct icicle-sweep output, every request eventually succeeds
 * within its deadline via retry/backoff, and the daemon answers a
 * clean ping after every episode. The lock-order runtime is armed
 * for the whole run, so a chaos-only lock cycle also fails it.
 *
 * Exit 0 when every invariant held (and the lock graph is clean),
 * 1 on violations, 2 on usage or setup errors.
 */

#include <cstdio>
#include <string>

#include "analysis/sarif.hh"
#include "common/argparse.hh"
#include "common/lockorder.hh"
#include "common/logging.hh"
#include "fault/atomic_file.hh"
#include "serve/chaos.hh"

using namespace icicle;

namespace
{

constexpr char kUsage[] =
    "usage: icicle-chaos [options]\n"
    "\n"
    "drive a live icicled daemon with concurrent clients under a\n"
    "seeded fault schedule (or an overload drill) and check the\n"
    "serving path's robustness invariants\n"
    "\n"
    "  --dir DIR          working directory (default\n"
    "                     icicle-chaos.tmp; keep it short — the\n"
    "                     daemon socket lives inside)\n"
    "  --seed N           master seed: fault schedule, query choice,\n"
    "                     client jitter (default 1)\n"
    "  --episodes E       fault episodes (default 2)\n"
    "  --clients C        concurrent client threads (default 3)\n"
    "  --requests R       sweep requests per client per episode\n"
    "                     (default 3)\n"
    "  --cycles N         simulated cycles per point (default 50000)\n"
    "  --shards S         daemon worker processes (default 2)\n"
    "  --max-conns N      daemon connection cap (default 0 = off)\n"
    "  --max-queue N      daemon miss-path cap, N x S runs\n"
    "                     (default 0 = off)\n"
    "  --attempt-timeout MS  client per-attempt deadline (default\n"
    "                     2000)\n"
    "  --deadline MS      client total deadline per request\n"
    "                     (default 60000)\n"
    "  --clean            run with no faults (baseline lane)\n"
    "  --overload         overload drill: no faults, demand >= 1\n"
    "                     shed and 100%% eventual success\n"
    "  --json FILE        write the verdict as JSON\n"
    "  --sarif FILE       write CHAOS-00x/SYNC-0xx findings as\n"
    "                     SARIF 2.1.0\n"
    "\n"
    "exit status: 0 all invariants held, 1 violations, 2 usage or\n"
    "setup error\n";

} // namespace

int
main(int argc, char **argv)
{
    ChaosOptions opts;
    std::string json_path;
    std::string sarif_path;
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
                opts.dir = value();
            } else if (arg == "--seed") {
                opts.seed = cli::parseNumber<u64>(arg, value());
            } else if (arg == "--episodes") {
                opts.episodes = cli::parseNumber<u32>(arg, value());
            } else if (arg == "--clients") {
                opts.clients = cli::parseNumber<u32>(arg, value());
            } else if (arg == "--requests") {
                opts.requestsPerClient =
                    cli::parseNumber<u32>(arg, value());
            } else if (arg == "--cycles") {
                opts.maxCycles = cli::parseNumber<u64>(arg, value());
            } else if (arg == "--shards") {
                opts.server.shards =
                    cli::parseNumber<u32>(arg, value());
            } else if (arg == "--max-conns") {
                opts.server.maxConns =
                    cli::parseNumber<u32>(arg, value());
            } else if (arg == "--max-queue") {
                opts.server.maxQueue =
                    cli::parseNumber<u32>(arg, value());
            } else if (arg == "--attempt-timeout") {
                opts.client.attemptTimeoutMs =
                    cli::parseNumber<u32>(arg, value());
            } else if (arg == "--deadline") {
                opts.client.totalDeadlineMs =
                    cli::parseNumber<u32>(arg, value());
            } else if (arg == "--clean") {
                opts.clean = true;
            } else if (arg == "--overload") {
                opts.overloadDrill = true;
            } else if (arg == "--json") {
                json_path = value();
            } else if (arg == "--sarif") {
                sarif_path = value();
            } else {
                return cli::unknownOption(arg, kUsage);
            }
        }
        if (opts.overloadDrill && opts.server.maxConns == 0) {
            std::fprintf(stderr, "fatal: --overload needs --max-conns "
                                 "(clients must exceed the cap)\n");
            return 2;
        }

        // The chaos drive doubles as a lock-order witness: every
        // conn/flight/pool/fault lock nesting it exercises
        // lands in the graph, and a chaos-only cycle fails the run.
        lockorder::setLockOrderEnabled(true);
        lockorder::resetLockOrder();

        const ChaosVerdict verdict = runChaos(opts);
        const lockorder::LockOrderReport graph =
            lockorder::lockOrderReport();

        std::fputs(verdict.format().c_str(), stdout);
        if (!graph.clean())
            std::fputs(graph.format().c_str(), stdout);

        if (!json_path.empty()) {
            writeFileAtomic(json_path, verdict.toJson(),
                            FaultSite::ReportWrite);
        }
        if (!sarif_path.empty()) {
            writeSarif("icicle-chaos",
                       {{"serve-chaos", verdict.toLintReport()},
                        {"lock-order", graph.toLintReport()}},
                       sarif_path);
        }

        if (verdict.pass() && graph.clean()) {
            std::printf("chaos verdict: PASS\n");
            return 0;
        }
        std::printf("chaos verdict: FAIL (%zu invariant "
                    "violations, %zu lock-order violations)\n",
                    verdict.failures.size(),
                    graph.violations.size());
        return 1;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    }
}
