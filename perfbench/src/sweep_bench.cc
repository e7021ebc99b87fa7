/**
 * @file
 * The sweep workloads: sweep-k3 and sweep-traced.
 *
 * Untraced runs time whole grid passes through runSweep, the engine
 * icicle-sweep drives, and check every pass against pinned digests.
 * Traced runs add one pass through runSweepJobs whose make functions
 * time buildWorkload and makeSweepCore, then replay each point's
 * remaining steps serially under spans: Core::run in the engine's
 * chunk size (with and without the capture hook on traced points),
 * gatherTmaCounters + analyzeTma, TraceAnalyzer, and Trace::toStore.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "bench.hh"
#include "common/logging.hh"
#include "core/session.hh"
#include "spans.hh"
#include "stats.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

using namespace icicle;

/** One cycle budget for every point of both grids. */
constexpr u64 kSweepCycles = 1'500'000;
/** Fewest timed passes: the faster half is then at least two. */
constexpr size_t kMinPasses = 4;
/** Back-to-back set-ups before each pass; setup_s is the median of
 * all of them (a single set-up takes milliseconds). */
constexpr u32 kSetupsPerPass = 15;
/** Hard stop for the timed passes, far inside the run limit. */
constexpr double kMaxTimedSeconds = 120;

/** A fixed grid and the engine settings it runs with. */
struct SweepWorkload
{
    std::string name;
    GridSpec grid;
    u32 workers = 1;
};

SweepWorkload
sweepWorkload(const std::string &name)
{
    SweepWorkload w;
    w.name = name;
    // Heaviest core first, so the grid's tail is short Rocket points
    // and no worker is left alone with a long BOOM point at the end.
    w.grid.cores = {"boom-large", "rocket"};
    w.grid.maxCycles = kSweepCycles;
    if (name == "sweep-k3") {
        w.grid.workloads = {"500.perlbench_r", "502.gcc_r",
                            "505.mcf_r",       "520.omnetpp_r",
                            "523.xalancbmk_r", "525.x264_r",
                            "531.deepsjeng_r", "541.leela_r",
                            "548.exchange2_r", "557.xz_r",
                            "coremark",        "dhrystone"};
        w.grid.counterArchs = {CounterArch::Scalar,
                               CounterArch::AddWires,
                               CounterArch::Distributed};
        w.workers = 2;
    } else if (name == "sweep-traced") {
        w.grid.workloads = {"vvadd",         "mm",
                            "memcpy",        "mergesort",
                            "qsort",         "rsort",
                            "towers",        "spmv",
                            "pointer-chase", "icache-stress",
                            "brmiss",        "brmiss-inv",
                            "coremark",      "dhrystone",
                            "505.mcf_r",     "523.xalancbmk_r"};
        w.grid.counterArchs = {CounterArch::AddWires};
        w.grid.withTrace = true;
        w.workers = 1;
    } else {
        fatal("unknown sweep workload '", name, "'");
    }
    return w;
}

/**
 * Everything icicle-sweep does before its first job: grid
 * expansion, one makeSweepCore per core and one buildWorkload per
 * workload (its up-front validation), and directory creation.
 */
void
setupOnce(const SweepWorkload &w, const std::string &dir)
{
    if (w.grid.expand().empty())
        fatal(w.name, ": empty grid");
    for (const std::string &core : w.grid.cores)
        makeSweepCore(core, CounterArch::AddWires,
                      buildWorkload(w.grid.workloads[0]));
    for (const std::string &workload : w.grid.workloads)
        buildWorkload(workload);
    std::filesystem::create_directories(dir);
}

struct Pass
{
    double makespan = 0;
    std::vector<SweepResult> results;
};

/** One grid pass; `jobs` overrides the grid's own jobs. */
Pass
runPass(const SweepWorkload &w, const std::vector<SweepJob> *jobs,
        const std::string &dir)
{
    std::filesystem::create_directories(dir);
    SweepOptions options;
    options.workers = w.workers;
    if (w.grid.withTrace)
        options.traceOutDir = dir;
    Pass pass;
    const Clock::time_point start = Clock::now();
    pass.results =
        jobs ? runSweepJobs(*jobs, options) : runSweep(w.grid, options);
    pass.makespan = secondsSince(start);
    return pass;
}

/** Compare one output's digest with its pin; false (and a note) on
 * a mismatch or a missing pin. */
bool
matchesPin(const std::map<std::string, std::string> &pins,
           const std::string &key, const std::string &digest)
{
    const auto it = pins.find(key);
    if (it == pins.end()) {
        warn("no pinned digest for '", key, "' (got ", digest, ")");
        return false;
    }
    if (it->second != digest) {
        warn("digest mismatch for '", key, "': pinned ", it->second,
             ", got ", digest);
        return false;
    }
    return true;
}

/**
 * Check one pass: every point Ok with a passing self-check, the CSV
 * report and (traced grids) every .icst store equal to their pins.
 * Counts the points into `result`.
 */
void
checkPass(const SweepWorkload &w, const Pass &pass,
          const std::string &dir,
          const std::map<std::string, std::string> &pins,
          RunResult &result)
{
    for (const SweepResult &r : pass.results) {
        result.attempted++;
        if (r.status != SweepStatus::Ok || r.exitCode != 0) {
            result.failed++;
            warn(w.name, ": point ", r.label, " ",
                 sweepStatusName(r.status), " exit ", r.exitCode, " ",
                 r.error);
        }
    }
    bool match = matchesPin(pins, w.name + " report.csv",
                            digestHex(formatSweepCsv(pass.results)));
    if (w.grid.withTrace) {
        for (const SweepResult &r : pass.results) {
            if (r.traceStore.empty()) {
                warn(w.name, ": point ", r.label, " wrote no store");
                match = false;
                continue;
            }
            match &= matchesPin(pins, w.name + " " + r.traceStore,
                                fileDigest(dir + "/" + r.traceStore));
        }
    }
    result.correct &= match;
}

/** Where make() spent its time for one job. */
struct MakeTiming
{
    double buildStart = 0;
    double buildEnd = 0;
    double makeEnd = 0;
};

/**
 * The grid's jobs, as runSweep builds them, with make functions that
 * time buildWorkload and makeSweepCore. Each job writes only its own
 * slot of `timings`; the engine joins its workers before returning.
 */
std::vector<SweepJob>
timedJobs(const SweepWorkload &w, std::vector<MakeTiming> &timings)
{
    const std::vector<SweepPoint> points = w.grid.expand();
    timings.assign(points.size(), MakeTiming{});
    std::vector<SweepJob> jobs;
    for (size_t i = 0; i < points.size(); i++) {
        const SweepPoint point = points[i];
        MakeTiming *slot = &timings[i];
        SweepJob job;
        job.label = sweepPointLabel(point);
        job.maxCycles = point.maxCycles;
        job.withTrace = point.withTrace;
        job.point = point;
        job.make = [point, slot] {
            slot->buildStart = nowSeconds();
            const Program program = buildWorkload(point.workload);
            slot->buildEnd = nowSeconds();
            std::unique_ptr<Core> core =
                makeSweepCore(point.core, point.counterArch, program);
            slot->makeEnd = nowSeconds();
            return core;
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** Host time of one point's replayed steps. */
struct Replay
{
    u64 cycles = 0;
    /** Core::run without a hook. */
    double runS = 0;
    double tmaS = 0;
    /** Traced points: Core::run with the capture hook. */
    double runHookS = 0;
    double analyzeS = 0;
    double storeS = 0;
    u64 traceBytes = 0;
    u64 storeBytes = 0;
    /** The replay reproduced the pass's statistics. */
    bool matches = true;
};

/** Core::run in the engine's chunk size until done or out of budget. */
u64
runChunked(Core &core, u64 max_cycles,
           const std::function<void(Cycle, const EventBus &)> &hook)
{
    const u64 chunk = SweepOptions{}.chunkCycles;
    u64 simulated = 0;
    while (!core.done() && simulated < max_cycles)
        simulated +=
            core.run(std::min(chunk, max_cycles - simulated), hook);
    return simulated;
}

/**
 * Replay one point's steps after make, each under a span that is a
 * child of `root`, and cross-check them against the pass's row.
 */
Replay
replayPoint(const SweepResult &row, const std::string &storePath,
            SpanLog &log, i64 root)
{
    const SweepPoint &point = row.point;
    const Program program = buildWorkload(point.workload);
    const std::string run_layer =
        point.core == "rocket" ? "rocket.run" : "boom.run";
    Replay replay;
    {
        std::unique_ptr<Core> core =
            makeSweepCore(point.core, point.counterArch, program);
        const double t0 = nowSeconds();
        replay.cycles = runChunked(*core, point.maxCycles, nullptr);
        const double t1 = nowSeconds();
        const TmaCounters counters = gatherTmaCounters(*core);
        const TmaResult tma = analyzeTma(*core);
        const double t2 = nowSeconds();
        log.add(run_layer, row.index, root, t0, t1);
        log.add("tma.analyze", row.index, root, t1, t2);
        replay.runS = t1 - t0;
        replay.tmaS = t2 - t1;
        replay.matches = replay.cycles == row.cycles &&
                         counters.retiredUops ==
                             row.counters.retiredUops &&
                         tma.retiring == row.tma.retiring &&
                         tma.backend == row.tma.backend;
    }
    if (!point.withTrace)
        return replay;

    std::unique_ptr<Core> core =
        makeSweepCore(point.core, point.counterArch, program);
    Trace trace(TraceSpec::tmaBundle(*core));
    const double t0 = nowSeconds();
    runChunked(*core, point.maxCycles,
               [&trace](Cycle, const EventBus &bus) {
                   trace.capture(bus);
               });
    const double t1 = nowSeconds();
    const TraceAnalyzer analyzer(trace);
    const u64 sequences = analyzer.recoveryCdf().sequences();
    const double overlap =
        analyzer.overlapUpperBound(core->coreWidth()).overlapFraction;
    const double t2 = nowSeconds();
    trace.toStore(storePath);
    const double t3 = nowSeconds();
    log.add("trace.capture_run", row.index, root, t0, t1);
    log.add("trace.analyze", row.index, root, t1, t2);
    log.add("store.write", row.index, root, t2, t3);
    replay.runHookS = t1 - t0;
    replay.analyzeS = t2 - t1;
    replay.storeS = t3 - t2;
    replay.traceBytes = trace.numCycles() * sizeof(u64);
    replay.storeBytes = std::filesystem::file_size(storePath);
    replay.matches &= sequences == row.recoverySequences &&
                      overlap == row.overlapFraction;
    return replay;
}

double
mean(double sum, size_t count)
{
    return count ? sum / static_cast<double>(count) : 0;
}

RunResult
tracedSweep(const SweepWorkload &w, const Options &opts,
            const std::map<std::string, std::string> &pins)
{
    RunResult result;
    const std::string plain_dir = opts.workDir + "/plain";
    const Pass plain = runPass(w, nullptr, plain_dir);
    checkPass(w, plain, plain_dir, pins, result);
    std::filesystem::remove_all(plain_dir);

    std::vector<MakeTiming> timings;
    const std::vector<SweepJob> jobs = timedJobs(w, timings);
    const std::string timed_dir = opts.workDir + "/timed";
    const Pass timed = runPass(w, &jobs, timed_dir);
    checkPass(w, timed, timed_dir, pins, result);
    std::filesystem::remove_all(timed_dir);

    SpanLog log;
    const std::string replay_dir = opts.workDir + "/replay";
    std::filesystem::create_directories(replay_dir);
    double wall = 0, attributed = 0, build = 0, make = 0;
    double rocket_cycles = 0, rocket_s = 0, boom_cycles = 0, boom_s = 0;
    double tma_s = 0, capture_s = 0, analyze_s = 0, store_s = 0;
    double raw_bytes = 0, store_bytes = 0, peak_bytes = 0;
    size_t traced_points = 0;
    // (core, workload) -> Core::run seconds per counter architecture.
    std::map<std::string, std::map<CounterArch, double>> arch_runs;
    for (const SweepResult &row : timed.results) {
        const MakeTiming &t = timings.at(row.index);
        const double point_wall = row.wallMs / 1e3;
        const i64 root = log.add("sweep.point", row.index, kNoParent,
                                 t.buildStart,
                                 t.buildStart + point_wall);
        log.add("workloads.build", row.index, root, t.buildStart,
                t.buildEnd);
        log.add("core.make", row.index, root, t.buildEnd, t.makeEnd);
        const i64 replay_root = log.add("sweep.replay", row.index,
                                        kNoParent, nowSeconds(), 0);
        const std::string store_path =
            sweepTracePath(replay_dir, row.label);
        const Replay r = replayPoint(row, store_path, log, replay_root);
        log.finish(replay_root, nowSeconds());
        result.attempted++;
        if (!r.matches) {
            result.failed++;
            result.correct = false;
            warn(w.name, ": replay of ", row.label,
                 " does not reproduce the pass's statistics");
        }
        if (row.point.withTrace) {
            const std::string name =
                store_path.substr(store_path.find_last_of('/') + 1);
            result.correct &= matchesPin(pins, w.name + " " + name,
                                         fileDigest(store_path));
        }

        const double point_build = t.buildEnd - t.buildStart;
        const double point_make = t.makeEnd - t.buildEnd;
        wall += point_wall;
        build += point_build;
        make += point_make;
        attributed += point_build + point_make + r.tmaS +
                      (row.point.withTrace
                           ? r.runHookS + r.analyzeS + r.storeS
                           : r.runS);
        (row.point.core == "rocket" ? rocket_cycles : boom_cycles) +=
            static_cast<double>(r.cycles);
        (row.point.core == "rocket" ? rocket_s : boom_s) += r.runS;
        tma_s += r.tmaS;
        if (row.point.withTrace) {
            traced_points++;
            capture_s += r.runHookS - r.runS;
            analyze_s += r.analyzeS;
            store_s += r.storeS;
            raw_bytes += static_cast<double>(r.traceBytes);
            store_bytes += static_cast<double>(r.storeBytes);
            peak_bytes =
                std::max(peak_bytes, static_cast<double>(r.traceBytes));
        }
        arch_runs[row.point.core + "/" + row.point.workload]
                 [row.point.counterArch] = r.runS;
    }
    std::filesystem::remove_all(replay_dir);

    std::vector<double> arch_ratios;
    for (const auto &[pair, runs] : arch_runs) {
        const auto base = runs.find(CounterArch::AddWires);
        if (base == runs.end() || base->second <= 0)
            continue;
        for (CounterArch arch :
             {CounterArch::Scalar, CounterArch::Distributed}) {
            const auto other = runs.find(arch);
            if (other != runs.end() && other->second > 0)
                arch_ratios.push_back(other->second / base->second);
        }
    }

    const size_t points = timed.results.size();
    std::map<std::string, double> &values = result.metrics;
    values["sweep.busy_share"] =
        wall / (static_cast<double>(w.workers) * timed.makespan);
    values["sweep.unattributed_share"] =
        unattributedShare(wall, attributed);
    values["workloads.build_ms"] = build * 1e3;
    values["core.make_ms"] = make * 1e3;
    if (rocket_s > 0)
        values["rocket.sim_cycles_per_s"] = rocket_cycles / rocket_s;
    if (boom_s > 0)
        values["boom.sim_cycles_per_s"] = boom_cycles / boom_s;
    values["pmu.arch_run_ratio"] = geomean(arch_ratios);
    values["tma.analyze_us"] = mean(tma_s, points) * 1e6;
    if (traced_points) {
        values["trace.capture_ms"] = mean(capture_s, traced_points) * 1e3;
        values["trace.analyze_ms"] = mean(analyze_s, traced_points) * 1e3;
        values["trace.peak_mb"] = peak_bytes / (1024.0 * 1024.0);
        values["store.write_ms"] = mean(store_s, traced_points) * 1e3;
        values["store.compression_ratio"] = raw_bytes / store_bytes;
    }
    values["bench.trace_overhead_share"] =
        timed.makespan / plain.makespan - 1;

    if (!opts.spansPath.empty())
        writeSpans(log.spans(), opts.spansPath);
    std::fprintf(stderr,
                 "%s traced: %zu points, makespan %.3f s untraced / "
                 "%.3f s traced, replay unattributed %.3f\n",
                 w.name.c_str(), points, plain.makespan, timed.makespan,
                 values["sweep.unattributed_share"]);
    return result;
}

} // namespace

RunResult
runSweepBench(const Options &opts)
{
    const SweepWorkload w = sweepWorkload(opts.workload);
    const std::map<std::string, std::string> pins =
        loadDigests(opts.digests);
    if (opts.trace)
        return tracedSweep(w, opts, pins);

    // Whole passes, each after kSetupsPerPass set-ups, until the run
    // length is used up. Set-ups spread over the run see the host in
    // every state, so the median of the many is steady.
    const size_t points = w.grid.expand().size();
    RunResult result;
    std::vector<double> setups, makespans;
    const Clock::time_point begin = Clock::now();
    for (u32 pass = 0;; pass++) {
        const double elapsed = secondsSince(begin);
        const double last = makespans.empty() ? 0 : makespans.back();
        if ((makespans.size() >= kMinPasses &&
             elapsed + last > opts.seconds) ||
            elapsed > kMaxTimedSeconds)
            break;
        const std::string setup_dir = opts.workDir + "/setup";
        for (u32 rep = 0; rep < kSetupsPerPass; rep++) {
            const Clock::time_point start = Clock::now();
            setupOnce(w, setup_dir);
            setups.push_back(secondsSince(start));
            std::filesystem::remove_all(setup_dir);
        }

        const std::string dir =
            opts.workDir + "/pass-" + std::to_string(pass);
        const Pass p = runPass(w, nullptr, dir);
        checkPass(w, p, dir, pins, result);
        std::filesystem::remove_all(dir);
        makespans.push_back(p.makespan);
    }

    double best_makespan = 0;
    const std::vector<size_t> best = fasterHalf(makespans);
    for (size_t pass : best)
        best_makespan += makespans[pass];
    std::map<std::string, double> &values = result.metrics;
    values["setup_s"] = median(setups);
    values["max_rss_mb"] = selfPeakRssMb();
    values["ops_per_s"] =
        static_cast<double>(points * best.size()) / best_makespan;
    std::string rates;
    for (double makespan : makespans) {
        char rate[16];
        std::snprintf(rate, sizeof(rate), " %.2f",
                      static_cast<double>(points) / makespan);
        rates += rate;
    }
    std::fprintf(stderr,
                 "%s: points/s per pass:%s; faster %zu passes %.3f, "
                 "setup %.4f s, %llu/%llu points failed\n",
                 w.name.c_str(), rates.c_str(), best.size(),
                 values["ops_per_s"], values["setup_s"],
                 static_cast<unsigned long long>(result.failed),
                 static_cast<unsigned long long>(result.attempted));
    return result;
}

int
printSweepDigests(const std::string &workDir)
{
    std::printf("# FNV-1a 64 digests of the deterministic sweep "
                "outputs: <workload> <output> <digest>.\n"
                "# A speed-only change must not move them. Regenerate "
                "with: perfbench digests --work .bench_run\n");
    for (const char *name : {"sweep-k3", "sweep-traced"}) {
        const SweepWorkload w = sweepWorkload(name);
        const std::string dir = workDir + "/" + name;
        const Pass pass = runPass(w, nullptr, dir);
        for (const SweepResult &r : pass.results) {
            if (r.status != SweepStatus::Ok || r.exitCode != 0)
                fatal(name, ": point ", r.label, " failed; not pinning");
        }
        std::printf("%s report.csv %s\n", name,
                    digestHex(formatSweepCsv(pass.results)).c_str());
        if (w.grid.withTrace) {
            for (const SweepResult &r : pass.results)
                std::printf("%s %s %s\n", name, r.traceStore.c_str(),
                            fileDigest(dir + "/" + r.traceStore).c_str());
        }
        std::filesystem::remove_all(dir);
    }
    return 0;
}

} // namespace perfbench
