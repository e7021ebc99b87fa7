/**
 * @file
 * icicle-trace: capture, inspect, query and salvage icestore (.icst)
 * trace containers.
 *
 *   $ icicle-trace info run.icst --verify
 *   $ icicle-trace query fetch-bubbles run.icst --window 1000:9000
 *   $ icicle-trace tma run.icst --window 0:500000 --width 3
 *   $ icicle-trace capture --core boom-large --workload qsort \
 *       --cycles 2000000 --store run.icst
 *
 * `query` and `tma` are served from block metadata wherever
 * possible: both report how many blocks actually decoded, the
 * sublinear-query evidence. `capture` streams the run straight to
 * disk without materializing the in-memory trace.
 *
 * Exit status: 0 ok, 2 usage error or malformed input; `salvage`
 * additionally exits 1 when it recovered a damaged store.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "fault/atomic_file.hh"
#include "store/store.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

using namespace icicle;

namespace
{

constexpr char kUsage[] =
        "usage: icicle-trace <command> [options]\n"
        "\n"
        "  info FILE.icst [--verify]\n"
        "      header, block, and compression summary; --verify\n"
        "      CRC-checks every block\n"
        "  query EVENT FILE.icst [--lane N] [--window A:B]\n"
        "      count event cycles (all lanes unless --lane), served\n"
        "      from block metadata where possible\n"
        "  tma FILE.icst --window A:B [--width N]\n"
        "      temporal TMA over the window (Table II model)\n"
        "  capture --core NAME --workload NAME --store F\n"
        "          [--cycles N] [--bundle tma|frontend] [--block N]\n"
        "      run a simulation and stream its trace into a store\n"
        "      (bounded memory)\n"
        "  salvage FILE.icst [--repaired OUT.icst] [--report F.json]\n"
        "      recover every CRC-valid block from a damaged store;\n"
        "      --repaired re-streams them into a sealed store,\n"
        "      --report writes a JSON damage report\n"
        "      (exit 0 clean, 1 salvaged with damage,\n"
        "      2 unrecoverable)\n";

int
usage(FILE *out)
{
    return cli::usageExit(out, kUsage);
}

EventId
parseEvent(const std::string &name)
{
    for (u32 e = 0; e < kNumEvents; e++) {
        if (name == eventName(static_cast<EventId>(e)))
            return static_cast<EventId>(e);
    }
    std::string known;
    for (u32 e = 0; e < kNumEvents; e++) {
        known += e ? ", " : "";
        known += eventName(static_cast<EventId>(e));
    }
    fatal("unknown event '", name, "' (known: ", known, ")");
}

void
parseWindow(const std::string &text, u64 &begin, u64 &end)
{
    const auto colon = text.find(':');
    if (colon == std::string::npos)
        fatal("--window expects A:B, got '", text, "'");
    begin = cli::parseNumber<u64>("--window", text.substr(0, colon));
    end = cli::parseNumber<u64>("--window", text.substr(colon + 1));
}

/** Flag cursor: positional args collect, --flags consume values. */
struct Args
{
    std::vector<std::string> positional;
    bool verify = false;
    bool has_window = false;
    u64 begin = 0, end = 0;
    int lane = -1;
    u32 width = 1;
    u32 block = 0;
    u64 cycles = 80'000'000;
    std::string core, workload, bundle = "tma", store;
    std::string repaired, report;
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
        if (arg == "--verify")
            args.verify = true;
        else if (arg == "--window") {
            parseWindow(value(), args.begin, args.end);
            args.has_window = true;
        } else if (arg == "--lane")
            args.lane = cli::parseNumber<u8>(arg, value());
        else if (arg == "--width")
            args.width = cli::parseNumber<u32>(arg, value());
        else if (arg == "--block")
            args.block = cli::parseNumber<u32>(arg, value());
        else if (arg == "--cycles")
            args.cycles = cli::parseNumber<u64>(arg, value());
        else if (arg == "--core")
            args.core = value();
        else if (arg == "--workload")
            args.workload = value();
        else if (arg == "--bundle")
            args.bundle = value();
        else if (arg == "--store")
            args.store = value();
        else if (arg == "--repaired")
            args.repaired = value();
        else if (arg == "--report")
            args.report = value();
        else if (arg[0] == '-')
            fatal("unknown option ", arg);
        else
            args.positional.push_back(arg);
    }
    return args;
}

int
cmdInfo(const Args &args)
{
    if (args.positional.size() != 1)
        fatal("info expects exactly one FILE.icst");
    StoreReader reader(args.positional[0]);
    if (args.verify)
        reader.verify();
    const double ratio =
        reader.fileBytes()
            ? static_cast<double>(reader.rawBytes()) /
                  static_cast<double>(reader.fileBytes())
            : 0.0;
    std::printf("%s\n", args.positional[0].c_str());
    std::printf("  cycles:       %llu\n",
                static_cast<unsigned long long>(reader.numCycles()));
    std::printf("  fields:       %u\n", reader.spec().numFields());
    std::printf("  blocks:       %u x %u cycles\n", reader.numBlocks(),
                reader.blockCycles());
    std::printf("  file bytes:   %llu\n",
                static_cast<unsigned long long>(reader.fileBytes()));
    std::printf("  raw bytes:    %llu (8 B/cycle in memory)\n",
                static_cast<unsigned long long>(reader.rawBytes()));
    std::printf("  compression:  %.2fx%s\n", ratio,
                args.verify ? "  (all block CRCs verified)" : "");
    std::printf("  fields (popcount over the whole trace):\n");
    for (const TraceField &field : reader.spec().fields) {
        std::printf("    %18s[%u]  %llu\n", eventName(field.event),
                    field.lane,
                    static_cast<unsigned long long>(
                        reader.count(field.event, field.lane)));
    }
    return 0;
}

int
cmdQuery(const Args &args)
{
    if (args.positional.size() != 2)
        fatal("query expects EVENT FILE.icst");
    const EventId event = parseEvent(args.positional[0]);
    StoreReader reader(args.positional[1]);
    if (reader.numCycles() == 0)
        fatal("store '", args.positional[1],
              "' holds zero cycles; nothing to query");
    u64 count = 0;
    if (args.has_window) {
        clampTraceWindow(reader.numCycles(), args.begin, args.end,
                         "icicle-trace query");
        if (args.lane >= 0)
            fatal("--lane with --window is not supported; windowed "
                  "counts cover all traced lanes");
        count = reader.countInWindow(event, args.begin, args.end);
    } else if (args.lane >= 0) {
        count = reader.count(event, static_cast<u8>(args.lane));
    } else {
        count = reader.countAllLanes(event);
    }
    std::printf("%s: %llu", args.positional[0].c_str(),
                static_cast<unsigned long long>(count));
    if (args.has_window)
        std::printf(" in [%llu, %llu)",
                    static_cast<unsigned long long>(args.begin),
                    static_cast<unsigned long long>(args.end));
    std::printf("  (%llu of %u blocks decoded)\n",
                static_cast<unsigned long long>(
                    reader.blocksDecoded()),
                reader.numBlocks());
    return 0;
}

int
cmdTma(const Args &args)
{
    if (args.positional.size() != 1)
        fatal("tma expects FILE.icst");
    if (!args.has_window)
        fatal("tma requires --window A:B");
    StoreReader reader(args.positional[0]);
    const TmaResult result =
        reader.windowTma(args.begin, args.end, args.width);
    char title[96];
    std::snprintf(title, sizeof(title),
                  "temporal TMA, cycles [%llu, %llu), width %u",
                  static_cast<unsigned long long>(args.begin),
                  static_cast<unsigned long long>(args.end),
                  args.width);
    std::fputs(formatTmaReport(result, title).c_str(), stdout);
    std::printf("(%llu of %u blocks decoded)\n",
                static_cast<unsigned long long>(
                    reader.blocksDecoded()),
                reader.numBlocks());
    return 0;
}

int
cmdCapture(const Args &args)
{
    if (args.core.empty() || args.workload.empty() || args.store.empty())
        fatal("capture requires --core, --workload and --store");
    std::unique_ptr<Core> core = makeSweepCore(
        args.core, CounterArch::AddWires, buildWorkload(args.workload));
    TraceSpec spec;
    if (args.bundle == "tma")
        spec = TraceSpec::tmaBundle(*core);
    else if (args.bundle == "frontend")
        spec = TraceSpec::frontendBundle();
    else
        fatal("unknown bundle '", args.bundle,
              "' (tma, frontend)");

    const u64 cycles = streamTraceToStore(*core, spec, args.cycles,
                                          args.store, args.block);
    std::printf("captured %llu cycles of %s/%s (%s bundle)\n",
                static_cast<unsigned long long>(cycles),
                args.core.c_str(), args.workload.c_str(),
                args.bundle.c_str());
    return 0;
}

int
cmdSalvage(const Args &args)
{
    if (args.positional.size() != 1)
        fatal("salvage expects FILE.icst");
    const std::string &path = args.positional[0];
    // An unrecoverable store (unreadable header / field table) throws
    // StoreErrorKind::Unrecoverable here, which main() maps to exit 2.
    StoreReader reader(path, StoreOpen::Salvage);
    const StoreDamage &damage = reader.damage();

    std::printf("%s\n", path.c_str());
    std::printf("  index:            %s\n",
                damage.indexValid ? "valid" : "rebuilt by scan");
    std::printf("  recovered blocks: %llu (%llu cycles)\n",
                static_cast<unsigned long long>(
                    damage.recoveredBlocks),
                static_cast<unsigned long long>(
                    damage.recoveredCycles));
    std::printf("  damaged blocks:   %llu (%llu cycles lost)\n",
                static_cast<unsigned long long>(damage.damaged.size()),
                static_cast<unsigned long long>(damage.damagedCycles));
    if (damage.trailingBytes)
        std::printf("  trailing bytes:   %llu (unparsed tail)\n",
                    static_cast<unsigned long long>(
                        damage.trailingBytes));

    if (!args.report.empty())
        writeFileAtomic(args.report, damage.toJson(path),
                        FaultSite::ReportWrite);
    if (!args.repaired.empty()) {
        const u64 cycles = reader.writeRepaired(args.repaired);
        std::printf("  repaired store:   %s (%llu cycles)\n",
                    args.repaired.c_str(),
                    static_cast<unsigned long long>(cycles));
    }
    return damage.clean() ? 0 : 1;
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
        if (command == "info")
            return cmdInfo(args);
        if (command == "query")
            return cmdQuery(args);
        if (command == "tma")
            return cmdTma(args);
        if (command == "capture")
            return cmdCapture(args);
        if (command == "salvage")
            return cmdSalvage(args);
        std::fprintf(stderr, "unknown command: %s\n",
                     command.c_str());
        return usage(stderr);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    }
}
