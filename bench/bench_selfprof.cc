/**
 * @file
 * bench/selfprof — the simulator profiles its own host-side
 * throughput. Three fixed lanes (Rocket, BOOM large, BOOM large +
 * tracer) run a mixed ALU/memory/branch loop for 1,000,000 simulated
 * cycles each; the binary records simulated cycles per host second
 * (wall clock) and emits BENCH_selfprof.json.
 *
 * Modes:
 *   bench_selfprof [--out FILE]          run + emit JSON
 *   bench_selfprof --check BASELINE CURRENT
 *       calibration-normalized throughput gate: exit 1 when a lane
 *       of BASELINE is missing from CURRENT or its normalized
 *       sim-cycles/s dropped more than 20%.
 *
 * Both modes validate every report they read or write, so CI needs
 * no Python or jq: validateSelfprofReport() in src/selfprof/ is the
 * contract. Exit status: 0 ok, 1 invalid report or gate failure,
 * 2 usage error.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "boom/boom.hh"
#include "common/argparse.hh"
#include "isa/builder.hh"
#include "rocket/rocket.hh"
#include "selfprof/selfprof.hh"
#include "trace/trace.hh"

namespace
{

using namespace icicle;
using namespace icicle::reg;

constexpr char kUsage[] =
    "usage: bench_selfprof [--out FILE]\n"
    "       bench_selfprof --check BASELINE CURRENT\n"
    "\n"
    "  --out FILE   write BENCH_selfprof.json to FILE (default:\n"
    "               stdout)\n"
    "  --check      exit 1 when a lane of BASELINE is missing from\n"
    "               CURRENT or its calibration-normalized\n"
    "               sim-cycles/s dropped more than 20%\n";

/** Simulated cycles each lane measures. */
constexpr u64 kSimCycles = 1'000'000;
/** Largest normalized per-lane drop --check lets through. */
constexpr double kTolerance = 0.20;

Program
mixLoop()
{
    ProgramBuilder b("mix");
    Label buf = b.space(8192);
    Label loop = b.newLabel(), skip = b.newLabel();
    b.la(s0, buf);
    b.li(t2, 1'000'000'000); // effectively endless; capped by cycles
    b.bind(loop);
    b.andi(t0, t2, 1023);
    b.slli(t0, t0, 3);
    b.add(t1, s0, t0);
    b.ld(t3, t1, 0);
    b.add(t3, t3, t2);
    b.sd(t3, t1, 0);
    b.andi(t4, t2, 7);
    b.beqz(t4, skip);
    b.addi(t5, t5, 1);
    b.bind(skip);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.halt();
    return b.build();
}

struct LaneResult
{
    std::string name;
    double wallSeconds = 0;
};

/** Warm the core (cold caches/predictors), then time kSimCycles. */
template <typename F>
LaneResult
measureLane(const std::string &name, Core &core, F &&run)
{
    core.run(10'000); // warm-up outside the measured region
    const auto start = std::chrono::steady_clock::now();
    run(kSimCycles);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return LaneResult{name, elapsed.count()};
}

std::string
renderReport(const std::vector<LaneResult> &lanes, double spin_rate)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\n";
    os << "  \"schema_version\": 1,\n";
    os << "  \"calibration\": {\"spin_iters_per_sec\": " << spin_rate
       << "},\n";
    os << "  \"lanes\": [\n";
    for (u64 i = 0; i < lanes.size(); i++) {
        const LaneResult &lane = lanes[i];
        const double rate =
            static_cast<double>(kSimCycles) / lane.wallSeconds;
        os << "    {\"name\": \"" << lane.name << "\", "
           << "\"sim_cycles\": " << kSimCycles << ", "
           << "\"wall_seconds\": " << lane.wallSeconds << ", "
           << "\"sim_cycles_per_sec\": " << rate << "}"
           << (i + 1 < lanes.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

/** Read, parse and validate the report at `path`. */
bool
loadAndValidate(const std::string &path, JsonValue &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "selfprof: cannot open %s\n",
                     path.c_str());
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    out = parseJson(buffer.str(), &error);
    if (out.kind == JsonValue::Kind::Null && !error.empty()) {
        std::fprintf(stderr, "selfprof: %s: parse error: %s\n",
                     path.c_str(), error.c_str());
        return false;
    }
    if (!validateSelfprofReport(out, &error)) {
        std::fprintf(stderr, "selfprof: %s: invalid report: %s\n",
                     path.c_str(), error.c_str());
        return false;
    }
    return true;
}

int
checkReports(const std::string &baseline_path,
             const std::string &current_path)
{
    JsonValue baseline, current;
    if (!loadAndValidate(baseline_path, baseline) ||
        !loadAndValidate(current_path, current))
        return 1;
    const SelfprofComparison cmp =
        compareSelfprofReports(baseline, current, kTolerance);
    std::fputs(cmp.report.c_str(), stdout);
    if (!cmp.ok) {
        std::fprintf(stderr,
                     "selfprof: a baseline lane is missing or "
                     "dropped more than %.0f%%\n",
                     kTolerance * 100);
        return 1;
    }
    std::printf("selfprof: within tolerance\n");
    return 0;
}

int
runLanes(const std::string &out_path)
{
    std::vector<LaneResult> lanes;

    {
        RocketCore core(RocketConfig{}, mixLoop());
        lanes.push_back(measureLane(
            "rocket_mix", core,
            [&core](u64 cycles) { core.run(cycles); }));
    }
    {
        BoomCore core(BoomConfig::large(), mixLoop());
        lanes.push_back(measureLane(
            "boom_large_mix", core,
            [&core](u64 cycles) { core.run(cycles); }));
    }
    {
        BoomCore core(BoomConfig::large(), mixLoop());
        const TraceSpec spec = TraceSpec::tmaBundle(core);
        Trace trace(spec);
        lanes.push_back(measureLane(
            "boom_large_traced", core,
            [&core, &trace](u64 cycles) {
                core.runLoop(cycles,
                             [&trace](Cycle, const EventBus &bus) {
                                 trace.capture(bus);
                             });
            }));
    }

    const std::string report =
        renderReport(lanes, calibrateSpinRate());

    // The emitted report must pass its own validation.
    std::string error;
    const JsonValue parsed = parseJson(report, &error);
    if (!validateSelfprofReport(parsed, &error)) {
        std::fprintf(stderr,
                     "selfprof: generated report is invalid: %s\n",
                     error.c_str());
        return 1;
    }

    if (out_path.empty()) {
        std::fputs(report.c_str(), stdout);
    } else {
        std::ofstream out(out_path);
        out << report;
        if (!out) {
            std::fprintf(stderr, "selfprof: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        std::printf("selfprof: wrote %s\n", out_path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (cli::isHelp(arg))
            return cli::usageExit(stdout, kUsage);
        if (arg == "--check") {
            if (i + 2 >= argc)
                return cli::missingValue(arg, kUsage);
            if (i + 3 < argc)
                return cli::unknownOption(argv[i + 3], kUsage);
            return checkReports(argv[i + 1], argv[i + 2]);
        }
        if (arg == "--out") {
            if (i + 1 >= argc)
                return cli::missingValue(arg, kUsage);
            out_path = argv[++i];
            continue;
        }
        return cli::unknownOption(arg, kUsage);
    }
    return runLanes(out_path);
}
