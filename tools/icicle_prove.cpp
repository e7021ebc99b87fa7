/**
 * @file
 * icicle-prove: exhaustive counter-architecture model checker and
 * trace-invariant verifier.
 *
 *   $ icicle-prove arch                    # PROVE-C1/C2/C3 matrix
 *   $ icicle-prove arch --horizon 24 --json
 *   $ icicle-prove trace run.icst          # PROVE-T store replay
 *   $ icicle-prove trace --live --core boom-small --workload dhrystone
 *   $ icicle-prove constraints             # derived PROVE-R ruleset
 *   $ icicle-prove refute                  # PROVE-R litmus refutation
 *   $ icicle-prove mutants                 # self-validation suite
 *
 * `arch` enumerates every reachable counter state of every shipped
 * architecture x geometry under all input burst schedules and checks
 * lossless counting, drain liveness, and CSR coherence. `trace`
 * replays an icestore container (or a live capture run with --live)
 * against the PROVE-T invariant family. `constraints` prints the
 * statically derived model-implied counter inequalities (with their
 * derivation provenance) for the named core configurations. `refute`
 * runs the litmus suite on real cores and refutes measured counter
 * deltas against the derived constraints (PROVE-R0..R4). `mutants`
 * re-runs the prover against each seeded counter bug (and the litmus
 * refuter against each seeded event-bus bug) and requires all of them
 * caught; it needs a build configured with -DICICLE_MUTANTS=ON.
 *
 * Exit status: 0 all checks clean, 1 findings (or a missed mutant),
 * 2 usage error / malformed input / unknown core or litmus name /
 * mutants not compiled in.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/constraints.hh"
#include "analysis/sarif.hh"
#include "common/argparse.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "pmu/mutants.hh"
#include "prove/prove.hh"
#include "prove/refute.hh"
#include "prove/trace_check.hh"
#include "store/store.hh"
#include "sweep/sweep.hh"
#include "workloads/litmus.hh"

using namespace icicle;

namespace
{

constexpr char kUsage[] =
        "usage: icicle-prove <command> [options]\n"
        "\n"
        "  arch [--horizon N] [--json] [--sarif FILE]\n"
        "      exhaustively enumerate the shipped counter matrix and\n"
        "      check PROVE-C1 (lossless), PROVE-C2 (drain liveness),\n"
        "      PROVE-C3 (CSR coherence)\n"
        "  trace FILE.icst [--json] [--sarif FILE]\n"
        "      replay a store against the PROVE-T invariants\n"
        "  trace --live [--core NAME] [--workload NAME]\n"
        "        [--arch scalar|addwires|distributed] [--cycles N]\n"
        "        [--json] [--sarif FILE]\n"
        "      run a live capture and cross-check CSR counters,\n"
        "      host ground truth, and trace popcounts (PROVE-T4)\n"
        "  constraints [CORE...] [--json]\n"
        "      derive and print the model-implied counter\n"
        "      inequalities (PROVE-R ruleset) for the named core\n"
        "      configurations (default: all shipped configs)\n"
        "  refute [CORE...] [--workload NAME]... [--cycles N]\n"
        "         [--arch scalar|addwires|distributed] [--json]\n"
        "         [--sarif FILE]\n"
        "      run the litmus suite on real cores and refute measured\n"
        "      counter deltas against the derived constraints\n"
        "      (default cores: rocket boom-small; default: the whole\n"
        "      litmus suite)\n"
        "  mutants [--horizon N] [--json]\n"
        "      activate each seeded counter bug and require the\n"
        "      checker to catch it (needs -DICICLE_MUTANTS=ON)\n";

int
usage(FILE *out)
{
    return cli::usageExit(out, kUsage);
}

struct Args
{
    std::vector<std::string> positional;
    bool json = false;
    bool live = false;
    u32 horizon = 32;
    u64 cycles = 200000;
    bool cyclesSet = false;
    std::string core = "boom-small";
    std::string workload = "dhrystone";
    /** Every --workload occurrence, for multi-workload commands. */
    std::vector<std::string> workloads;
    std::string arch = "distributed";
    std::string sarif;
};

Args
parseArgs(int argc, char **argv, int first)
{
    Args args;
    for (int i = first; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--json")
            args.json = true;
        else if (arg == "--live")
            args.live = true;
        else if (arg == "--horizon")
            args.horizon = cli::parseNumber<u32>(arg, value());
        else if (arg == "--cycles") {
            args.cycles = cli::parseNumber<u64>(arg, value());
            args.cyclesSet = true;
        }
        else if (arg == "--core")
            args.core = value();
        else if (arg == "--workload") {
            args.workload = value();
            args.workloads.push_back(args.workload);
        }
        else if (arg == "--arch")
            args.arch = value();
        else if (arg == "--sarif")
            args.sarif = value();
        else if (!arg.empty() && arg[0] == '-')
            fatal("unknown option ", arg);
        else
            args.positional.push_back(arg);
    }
    return args;
}

void
printReport(const LintReport &report, bool verbose_notes)
{
    for (const Diagnostic &diag : report.diagnostics()) {
        if (diag.severity == Severity::Info && !verbose_notes)
            continue;
        std::printf("  %s\n",
                    (std::string(severityName(diag.severity)) + " [" +
                     diag.rule + "] " + diag.subject + ": " +
                     diag.message)
                        .c_str());
    }
}

int
cmdArch(const Args &args)
{
    const std::vector<ProveRun> runs = proveArchMatrix(args.horizon);

    u32 total_errors = 0;
    u64 total_states = 0;
    u64 total_transitions = 0;
    std::vector<std::pair<std::string, LintReport>> reports;
    for (const ProveRun &run : runs) {
        total_errors += run.report.errorCount();
        total_states += run.stats.states;
        total_transitions += run.stats.transitions;
        reports.emplace_back(run.name, run.report);
    }

    if (args.json) {
        std::printf("[");
        bool first = true;
        for (const ProveRun &run : runs) {
            std::printf(
                "%s{\"run\":\"%s\",\"states\":%llu,"
                "\"transitions\":%llu,\"depth\":%u,\"closed\":%s,"
                "\"activeSources\":%u,\"report\":%s}",
                first ? "" : ",", run.name.c_str(),
                static_cast<unsigned long long>(run.stats.states),
                static_cast<unsigned long long>(
                    run.stats.transitions),
                run.stats.depth, run.stats.closed ? "true" : "false",
                run.stats.activeSources,
                run.report.toJson().c_str());
            first = false;
        }
        std::printf("]\n");
    } else {
        for (const ProveRun &run : runs) {
            const bool clean = run.report.errorCount() == 0;
            std::printf("%-28s %s  %llu states, %llu transitions, "
                        "depth %u%s%s\n",
                        run.name.c_str(), clean ? "proved" : "FAIL",
                        static_cast<unsigned long long>(
                            run.stats.states),
                        static_cast<unsigned long long>(
                            run.stats.transitions),
                        run.stats.depth,
                        run.stats.closed ? "" : " (not closed)",
                        run.stats.activeSources
                            ? ""
                            : " (no active sources)");
            if (!run.report.empty())
                printReport(run.report, !clean);
        }
        std::printf("%u run(s): %llu states, %llu transitions, "
                    "%u error(s)\n",
                    static_cast<u32>(runs.size()),
                    static_cast<unsigned long long>(total_states),
                    static_cast<unsigned long long>(total_transitions),
                    total_errors);
    }
    if (!args.sarif.empty())
        writeSarif("icicle-prove", reports, args.sarif);
    return total_errors > 0 ? 1 : 0;
}

int
cmdTrace(const Args &args)
{
    std::vector<std::pair<std::string, LintReport>> reports;
    u32 total_errors = 0;

    if (args.live) {
        if (!args.positional.empty())
            fatal("trace --live takes no FILE.icst");
        LiveCheckOptions options;
        options.coreName = args.core;
        options.arch = parseCounterArch(args.arch);
        options.workload = args.workload;
        options.maxCycles = args.cycles;

        LintReport report;
        const LiveCheckStats stats =
            proveLiveCrossCheck(options, report);
        total_errors = report.errorCount();
        const std::string subject = args.core + "/" + args.arch +
                                    "/" + args.workload;
        reports.emplace_back(subject, report);
        if (args.json) {
            std::printf("{\"subject\":\"%s\",\"cycles\":%llu,"
                        "\"eventsChecked\":%u,"
                        "\"countersProgrammed\":%u,\"report\":%s}\n",
                        subject.c_str(),
                        static_cast<unsigned long long>(stats.cycles),
                        stats.eventsChecked, stats.countersProgrammed,
                        report.toJson().c_str());
        } else {
            std::printf("%-28s %s  %llu cycles, %u events "
                        "cross-checked, %u counters\n",
                        subject.c_str(),
                        total_errors == 0 ? "proved" : "FAIL",
                        static_cast<unsigned long long>(stats.cycles),
                        stats.eventsChecked,
                        stats.countersProgrammed);
            if (!report.empty())
                printReport(report, total_errors != 0);
        }
    } else {
        if (args.positional.size() != 1)
            fatal("trace expects exactly one FILE.icst (or --live)");
        const std::string &path = args.positional[0];
        StoreReader reader(path);

        LintReport report;
        const TraceCheckStats stats =
            checkStoreInvariants(reader, report);
        total_errors = report.errorCount();
        reports.emplace_back(path, report);
        if (args.json) {
            std::printf("{\"store\":\"%s\",\"cycles\":%llu,"
                        "\"fields\":%u,\"coreWidth\":%u,"
                        "\"boomShaped\":%s,\"rules\":\"%s\","
                        "\"report\":%s}\n",
                        path.c_str(),
                        static_cast<unsigned long long>(stats.cycles),
                        stats.fields, stats.coreWidth,
                        stats.boomShaped ? "true" : "false",
                        stats.rulesRun.c_str(),
                        report.toJson().c_str());
        } else {
            std::printf("%-28s %s  %llu cycles x %u fields, rules "
                        "%s\n",
                        path.c_str(),
                        total_errors == 0 ? "verified" : "FAIL",
                        static_cast<unsigned long long>(stats.cycles),
                        stats.fields, stats.rulesRun.c_str());
            if (!report.empty())
                printReport(report, total_errors != 0);
        }
    }
    if (!args.sarif.empty())
        writeSarif("icicle-prove", reports, args.sarif);
    return total_errors > 0 ? 1 : 0;
}

int
cmdConstraints(const Args &args)
{
    std::vector<std::string> cores = args.positional;
    if (cores.empty())
        cores = sweepCoreNames();
    // Derivation is configuration-only; any program builds the probe.
    const Program probe = litmusSuite().front().build();

    if (args.json)
        std::printf("[");
    bool first = true;
    for (const std::string &name : cores) {
        const std::unique_ptr<Core> core =
            makeSweepCore(name, parseCounterArch(args.arch), probe);
        const ConstraintSet set = deriveConstraints(*core);
        if (args.json)
            std::printf("%s%s", first ? "" : ",",
                        set.toJson().c_str());
        else
            std::printf("%s", set.format().c_str());
        first = false;
    }
    if (args.json)
        std::printf("]\n");
    return 0;
}

int
cmdRefute(const Args &args)
{
    RefuteOptions options;
    options.cores = args.positional;
    options.workloads = args.workloads;
    options.arch = parseCounterArch(args.arch);
    if (args.cyclesSet)
        options.maxCycles = args.cycles;

    const RefuteResult result = proveRefutation(options);
    const u32 errors = result.report.errorCount();

    if (args.json) {
        std::printf("{\"constraints\":[");
        bool first = true;
        for (const auto &[name, set] : result.sets) {
            std::printf("%s{\"core\":\"%s\",\"derived\":%u}",
                        first ? "" : ",", name.c_str(), set.size());
            first = false;
        }
        std::printf("],\"runs\":[");
        first = true;
        for (const RefuteRun &run : result.runs) {
            std::printf(
                "%s{\"core\":\"%s\",\"workload\":\"%s\","
                "\"cycles\":%llu,\"halted\":%s,\"checked\":%u,"
                "\"violations\":%u}",
                first ? "" : ",", run.core.c_str(),
                run.workload.c_str(),
                static_cast<unsigned long long>(run.cycles),
                run.halted ? "true" : "false", run.checked,
                run.violations);
            first = false;
        }
        std::printf("],\"report\":%s}\n",
                    result.report.toJson().c_str());
    } else {
        for (const auto &[name, set] : result.sets)
            std::printf("%-28s %u constraint(s) derived\n",
                        name.c_str(), set.size());
        for (const RefuteRun &run : result.runs) {
            const std::string subject = run.core + "/" + run.workload;
            std::printf("%-28s %s  %llu cycles, %u check(s), "
                        "%u violation(s)\n",
                        subject.c_str(),
                        run.violations == 0 ? "ok" : "REFUTED",
                        static_cast<unsigned long long>(run.cycles),
                        run.checked, run.violations);
        }
        printReport(result.report, errors != 0);
        std::printf("%u run(s), %u violation(s)\n",
                    static_cast<u32>(result.runs.size()), errors);
    }
    if (!args.sarif.empty()) {
        std::vector<std::pair<std::string, LintReport>> reports;
        reports.emplace_back("refute", result.report);
        writeSarif("icicle-prove", reports, args.sarif);
    }
    return errors > 0 ? 1 : 0;
}

int
cmdMutants(const Args &args)
{
    if (!mutantsCompiledIn())
        fatal("this binary was built without -DICICLE_MUTANTS=ON; "
              "the mutant suite needs the seeded bugs compiled in");

    const std::vector<MutantResult> results =
        runMutantSuite(args.horizon);
    u32 caught = 0;
    u32 expected_hits = 0;
    for (const MutantResult &result : results) {
        caught += result.caught ? 1 : 0;
        expected_hits += result.expectedRuleHit ? 1 : 0;
    }
    const bool all_caught = caught == results.size();

    if (args.json) {
        std::printf("{\"mutants\":%u,\"caught\":%u,"
                    "\"expectedRuleHits\":%u,\"allCaught\":%s,"
                    "\"results\":[",
                    static_cast<u32>(results.size()), caught,
                    expected_hits, all_caught ? "true" : "false");
        bool first = true;
        for (const MutantResult &result : results) {
            std::printf("%s{\"mutant\":\"%s\",\"expectedRule\":"
                        "\"%s\",\"caught\":%s,\"expectedRuleHit\":%s,"
                        "\"findings\":%llu,\"witness\":",
                        first ? "" : ",", result.info.name,
                        result.info.expectedRule,
                        result.caught ? "true" : "false",
                        result.expectedRuleHit ? "true" : "false",
                        static_cast<unsigned long long>(
                            result.findings));
            std::printf("%s}",
                        jsonQuote(result.firstFinding).c_str());
            first = false;
        }
        std::printf("]}\n");
    } else {
        for (const MutantResult &result : results) {
            std::printf("%-28s %s  (expected %s%s, %llu findings)\n",
                        result.info.name,
                        result.caught ? "caught" : "MISSED",
                        result.info.expectedRule,
                        result.expectedRuleHit ? " hit" : " NOT hit",
                        static_cast<unsigned long long>(
                            result.findings));
            if (result.caught)
                std::printf("    witness: %s\n",
                            result.firstFinding.c_str());
        }
        std::printf("%u/%u mutant(s) caught, %u by their registered "
                    "rule\n",
                    caught, static_cast<u32>(results.size()),
                    expected_hits);
    }
    return all_caught ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr);
    const std::string command = argv[1];
    if (cli::isHelp(command) || command == "help")
        return usage(stdout);
    try {
        const Args args = parseArgs(argc, argv, 2);
        if (command == "arch")
            return cmdArch(args);
        if (command == "trace")
            return cmdTrace(args);
        if (command == "constraints")
            return cmdConstraints(args);
        if (command == "refute")
            return cmdRefute(args);
        if (command == "mutants")
            return cmdMutants(args);
        std::fprintf(stderr, "unknown command: %s\n",
                     command.c_str());
        return usage(stderr);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    }
}
