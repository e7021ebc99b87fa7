/**
 * @file
 * Sweep-engine tests: grid expansion order, deterministic aggregation
 * across worker counts (the byte-identical guarantee), retry and
 * timeout handling, custom-job campaigns, runs shared across counter
 * architectures, and the named-config / axis-value helpers.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "isa/builder.hh"
#include "pmu/csr.hh"
#include "rocket/rocket.hh"
#include "store/store.hh"
#include "sweep/journal.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

namespace icicle
{
namespace
{

using namespace reg;

/** A tiny deterministic loop that halts after `iterations`. */
Program
countLoop(u64 iterations)
{
    ProgramBuilder b("count");
    Label loop = b.newLabel();
    b.li(t2, static_cast<i64>(iterations));
    b.bind(loop);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.halt();
    return b.build();
}

/** A program that never halts (timeout fodder). */
Program
endlessLoop()
{
    ProgramBuilder b("endless");
    Label loop = b.newLabel();
    b.bind(loop);
    b.addi(t0, t0, 1);
    b.j(loop);
    return b.build();
}

/** countLoop, then a load far past the memory image: throws mid-run. */
Program
faultsAfter(u64 iterations)
{
    ProgramBuilder b("faults");
    Label loop = b.newLabel();
    b.li(t2, static_cast<i64>(iterations));
    b.bind(loop);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.li(t0, 1ll << 40);
    b.ld(t1, t0, 0);
    b.halt();
    return b.build();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** Sorted file names in a directory (stores and any leftover tmp). */
std::vector<std::string>
listing(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

GridSpec
smallGrid()
{
    GridSpec grid;
    grid.cores = {"rocket", "boom-small"};
    grid.workloads = {"vvadd", "towers"};
    grid.counterArchs = {CounterArch::Scalar, CounterArch::AddWires};
    grid.maxCycles = 400'000; // vvadd on Rocket needs ~210k
    return grid;
}

TEST(GridSpec, ExpandsRowMajor)
{
    // A value repeated on an axis counts once, where it first
    // appears: `--archs addwires,add-wires`, a spec line
    // `archs = scalar, scalar` and `icicled --archs` all expand
    // through here, and two points with one label would share one
    // store path.
    GridSpec repeated = smallGrid();
    repeated.cores = {"rocket", "boom-small", "rocket"};
    repeated.workloads = {"vvadd", "vvadd", "towers", "vvadd"};
    repeated.counterArchs = {CounterArch::Scalar, CounterArch::AddWires,
                             CounterArch::AddWires,
                             CounterArch::Scalar};
    for (const GridSpec &grid : {smallGrid(), repeated}) {
        const std::vector<SweepPoint> points = grid.expand();
        ASSERT_EQ(points.size(), 8u);
        for (const SweepPoint &point : points)
            EXPECT_EQ(point.maxCycles, 400'000u);
        // cores outermost, archs innermost.
        EXPECT_EQ(points[0].core, "rocket");
        EXPECT_EQ(points[0].workload, "vvadd");
        EXPECT_EQ(points[0].counterArch, CounterArch::Scalar);
        EXPECT_EQ(points[1].counterArch, CounterArch::AddWires);
        EXPECT_EQ(points[2].workload, "towers");
        EXPECT_EQ(points[4].core, "boom-small");
        EXPECT_EQ(points[7].core, "boom-small");
        EXPECT_EQ(points[7].workload, "towers");
        EXPECT_EQ(points[7].counterArch, CounterArch::AddWires);
        for (const SweepPoint &point : points)
            EXPECT_FALSE(point.withTrace);
    }
}

TEST(SweepEngine, ResultsArriveInGridOrder)
{
    SweepOptions options;
    options.workers = 4;
    const std::vector<SweepResult> results =
        runSweep(smallGrid(), options);
    ASSERT_EQ(results.size(), 8u);
    for (u64 i = 0; i < results.size(); i++) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].status, SweepStatus::Ok);
        EXPECT_TRUE(results[i].finished) << results[i].label;
        EXPECT_GT(results[i].cycles, 0u);
        EXPECT_GT(results[i].ipc, 0.0);
        EXPECT_EQ(results[i].attempts, 1u);
    }
    // Labels follow the row-major expansion.
    EXPECT_EQ(results[0].label, "rocket/vvadd/scalar");
    EXPECT_EQ(results[7].label, "boom-small/towers/add-wires");
}

// The acceptance property: an 8-point grid with 4 workers produces
// byte-identical aggregated output to the same grid with 1 worker.
TEST(SweepEngine, ParallelOutputMatchesSerialByteForByte)
{
    const GridSpec grid = smallGrid();
    SweepOptions serial;
    serial.workers = 1;
    SweepOptions parallel;
    parallel.workers = 4;
    const std::vector<SweepResult> a = runSweep(grid, serial);
    const std::vector<SweepResult> b = runSweep(grid, parallel);
    EXPECT_EQ(formatSweepTable(a), formatSweepTable(b));
    EXPECT_EQ(formatSweepCsv(a), formatSweepCsv(b));
    EXPECT_EQ(formatSweepJson(a), formatSweepJson(b));
    // And the measurements themselves are identical.
    ASSERT_EQ(a.size(), b.size());
    for (u64 i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        EXPECT_EQ(a[i].counters.retiredUops,
                  b[i].counters.retiredUops);
        EXPECT_DOUBLE_EQ(a[i].tma.retiring, b[i].tma.retiring);
    }
}

TEST(SweepEngine, MoreWorkersThanJobs)
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"vvadd"};
    grid.maxCycles = 100'000;
    SweepOptions options;
    options.workers = 16;
    const std::vector<SweepResult> results = runSweep(grid, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::Ok);
}

TEST(SweepEngine, EmptyJobListIsFine)
{
    EXPECT_TRUE(runSweepJobs({}).empty());
}

TEST(SweepEngine, FailedJobIsRetriedThenRecorded)
{
    SweepJob bad;
    bad.label = "always-fails";
    bad.make = []() -> std::unique_ptr<Core> {
        fatal("deliberate test failure");
    };
    SweepOptions options;
    options.maxAttempts = 3;
    const std::vector<SweepResult> results =
        runSweepJobs({bad}, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::Failed);
    EXPECT_EQ(results[0].attempts, 3u);
    EXPECT_NE(results[0].error.find("deliberate test failure"),
              std::string::npos);
}

TEST(SweepEngine, FlakyJobSucceedsOnRetry)
{
    auto flaky_count = std::make_shared<std::atomic<u32>>(0);
    SweepJob flaky;
    flaky.label = "flaky";
    flaky.maxCycles = 100'000;
    flaky.make = [flaky_count]() -> std::unique_ptr<Core> {
        if (flaky_count->fetch_add(1) == 0)
            fatal("first attempt fails");
        return std::make_unique<RocketCore>(RocketConfig{},
                                            countLoop(100));
    };
    SweepOptions options;
    options.maxAttempts = 2;
    const std::vector<SweepResult> results =
        runSweepJobs({flaky}, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::Ok);
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_TRUE(results[0].finished);
}

TEST(SweepEngine, PathologicalJobTimesOutWithoutHangingCampaign)
{
    SweepJob endless;
    endless.label = "endless";
    endless.maxCycles = ~0ull; // would run forever
    endless.make = [] {
        return std::make_unique<RocketCore>(RocketConfig{},
                                            endlessLoop());
    };
    SweepJob good;
    good.label = "good";
    good.maxCycles = 100'000;
    good.make = [] {
        return std::make_unique<RocketCore>(RocketConfig{},
                                            countLoop(100));
    };
    SweepOptions options;
    options.workers = 2;
    options.timeoutSec = 0.05;
    options.chunkCycles = 4096;
    const std::vector<SweepResult> results =
        runSweepJobs({endless, good}, options);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, SweepStatus::Timeout);
    EXPECT_FALSE(results[0].finished);
    EXPECT_GT(results[0].cycles, 0u);
    EXPECT_EQ(results[1].status, SweepStatus::Ok);
}

TEST(SweepEngine, CompletionCallbackSeesEveryJobExactlyOnce)
{
    std::atomic<u32> calls{0};
    std::atomic<u64> index_mask{0};
    SweepOptions options;
    options.workers = 4;
    options.onResult = [&](const SweepResult &r) {
        calls++;
        index_mask |= 1ull << r.index;
    };
    const std::vector<SweepResult> results =
        runSweep(smallGrid(), options);
    EXPECT_EQ(calls.load(), results.size());
    EXPECT_EQ(index_mask.load(), (1ull << results.size()) - 1);
}

TEST(SweepEngine, TracePointsCarryTraceMetrics)
{
    GridSpec grid;
    grid.cores = {"boom-small"};
    grid.workloads = {"towers"};
    grid.maxCycles = 300'000;
    grid.withTrace = true;
    SweepOptions options;
    options.workers = 2;
    const std::vector<SweepResult> results = runSweep(grid, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::Ok);
    // A branchy recursive workload recovers at least once.
    EXPECT_GT(results[0].recoverySequences, 0u);
}

TEST(SweepEngine, TraceOutWritesDeterministicStores)
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"vvadd", "towers"};
    grid.maxCycles = 300'000;
    grid.withTrace = true;

    const std::string dir1 = "/tmp/icicle_sweep_store_w1";
    const std::string dir4 = "/tmp/icicle_sweep_store_w4";
    for (const std::string &dir : {dir1, dir4}) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }
    SweepOptions options;
    options.workers = 1;
    options.traceOutDir = dir1;
    const std::vector<SweepResult> serial = runSweep(grid, options);
    options.workers = 4;
    options.traceOutDir = dir4;
    runSweep(grid, options);

    for (const SweepResult &row : serial) {
        SCOPED_TRACE(row.label);
        const std::string p1 = sweepTracePath(dir1, row.label);
        const std::string p4 = sweepTracePath(dir4, row.label);
        ASSERT_TRUE(std::filesystem::exists(p1));
        // The store writer is deterministic: 1-worker and 4-worker
        // campaigns must produce byte-identical files.
        EXPECT_EQ(slurp(p1), slurp(p4));
        // And the store agrees with the row's trace-derived metrics.
        StoreReader reader(p1);
        EXPECT_EQ(reader.numCycles(), row.cycles);
        // The live analysis equals the analyzer run over the stored
        // trace (Rocket is one slot wide).
        const Trace stored = reader.readAll();
        EXPECT_EQ(TraceAnalyzer(stored).recoveryCdf().sequences(),
                  row.recoverySequences);
        EXPECT_EQ(TraceAnalyzer(stored).overlapUpperBound(1)
                      .overlapFraction,
                  row.overlapFraction);
    }
    std::filesystem::remove_all(dir1);
    std::filesystem::remove_all(dir4);
}

TEST(SweepCore, NamedConfigsAllConstruct)
{
    const Program program = countLoop(10);
    for (const std::string &name : sweepCoreNames()) {
        auto core =
            makeSweepCore(name, CounterArch::Distributed, program);
        ASSERT_NE(core, nullptr) << name;
    }
    EXPECT_THROW(
        makeSweepCore("boom-colossal", CounterArch::Scalar, program),
        FatalError);
}

TEST(SweepCore, ParseCounterArch)
{
    EXPECT_EQ(parseCounterArch("scalar"), CounterArch::Scalar);
    EXPECT_EQ(parseCounterArch("addwires"), CounterArch::AddWires);
    EXPECT_EQ(parseCounterArch("add-wires"), CounterArch::AddWires);
    EXPECT_EQ(parseCounterArch("distributed"),
              CounterArch::Distributed);
    EXPECT_THROW(parseCounterArch("quantum"), FatalError);
}

TEST(SweepFormat, CsvEscapesAndJsonIsWellFormedish)
{
    SweepResult r;
    r.index = 0;
    r.label = "evil,\"label\"";
    r.status = SweepStatus::Failed;
    r.error = "line1\nline2";
    const std::string csv = formatSweepCsv({r});
    EXPECT_NE(csv.find("\"evil,\"\"label\"\"\""), std::string::npos);
    const std::string json = formatSweepJson({r});
    EXPECT_NE(json.find("\\n"), std::string::npos);
    // Timing column only appears when asked for.
    EXPECT_EQ(csv.find("wall_ms"), std::string::npos);
    EXPECT_NE(formatSweepCsv({r}, true).find("wall_ms"),
              std::string::npos);
}

TEST(SweepFormat, JsonEscapesEveryControlCharacter)
{
    // Regression: sweep's JSON rows escaped only '"', '\' and
    // newline, so a tab or other control byte in an error message
    // landed raw inside a JSON string, which JSON forbids.
    SweepResult r;
    r.index = 0;
    r.label = "rocket/vvadd/addwires";
    r.status = SweepStatus::Failed;
    r.error = std::string("tab\there, soh\x01here");
    const std::string json = formatSweepJson({r});
    EXPECT_NE(json.find("\"error\": \"tab\\there, soh\\u0001here\""),
              std::string::npos)
        << json;
    EXPECT_EQ(json.find('\t'), std::string::npos) << json;
    EXPECT_EQ(json.find('\x01'), std::string::npos) << json;
}

TEST(SweepFormat, ReportSwitchesOnTheFormatName)
{
    const std::vector<SweepResult> rows = {SweepResult{}};
    for (const char *format : {"text", "csv", "json"})
        EXPECT_TRUE(isSweepFormat(format)) << format;
    EXPECT_FALSE(isSweepFormat("xml"));
    EXPECT_EQ(formatSweepReport(rows, "text", false),
              formatSweepTable(rows, false));
    EXPECT_EQ(formatSweepReport(rows, "csv", true),
              formatSweepCsv(rows, true));
    EXPECT_EQ(formatSweepReport(rows, "json", false),
              formatSweepJson(rows, false));
    EXPECT_THROW(formatSweepReport(rows, "xml", false), FatalError);
}

TEST(SweepEngine, TimedOutTracedJobSkipIsVisibleNotSilent)
{
    // Regression: a traced job that timed out under --trace-out used
    // to silently write no store — the row looked like every other
    // and the missing file surfaced only when a consumer went
    // looking. The skip must be visible in the result and reports.
    SweepJob endless;
    endless.label = "endless-traced";
    endless.maxCycles = ~0ull;
    endless.withTrace = true;
    endless.make = [] {
        return std::make_unique<RocketCore>(RocketConfig{},
                                            endlessLoop());
    };
    const std::string dir = "/tmp/icicle_sweep_timeout_trace";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SweepOptions options;
    options.timeoutSec = 0.05;
    options.chunkCycles = 4096;
    options.maxAttempts = 1;
    options.traceOutDir = dir;
    const std::vector<SweepResult> results =
        runSweepJobs({endless}, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::Timeout);
    EXPECT_TRUE(results[0].traceStore.empty());
    EXPECT_FALSE(results[0].traceSkipped.empty());
    // The abandoned store leaves neither a file nor its tmp.
    EXPECT_FALSE(std::filesystem::exists(
        sweepTracePath(dir, endless.label)));
    EXPECT_FALSE(std::filesystem::exists(
        sweepTracePath(dir, endless.label) + ".tmp"));
    EXPECT_TRUE(listing(dir).empty());
    // The skip reaches both serialized reports.
    const std::string json = formatSweepJson(results);
    EXPECT_NE(json.find("\"trace_store\": null"), std::string::npos);
    EXPECT_NE(json.find("trace_skipped"), std::string::npos);
    const std::string csv = formatSweepCsv(results);
    EXPECT_NE(csv.find("trace_store"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(SweepEngine, TracedOkRowNamesItsStoreInReports)
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"vvadd"};
    grid.maxCycles = 300'000;
    grid.withTrace = true;
    const std::string dir = "/tmp/icicle_sweep_named_store";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SweepOptions options;
    options.traceOutDir = dir;
    const std::vector<SweepResult> results = runSweep(grid, options);
    ASSERT_EQ(results.size(), 1u);
    // Basename only: reports stay byte-identical across directories.
    EXPECT_EQ(results[0].traceStore, "rocket_vvadd_add-wires.icst");
    EXPECT_NE(formatSweepJson(results)
                  .find("\"trace_store\": \"rocket_vvadd_add-wires"
                        ".icst\""),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(SweepEngine, FailedTracedAttemptAbandonsItsStore)
{
    // A traced attempt that throws mid-run must not leave its partial
    // store (or its tmp) behind, and a retry that succeeds must leave
    // exactly the store a clean run writes.
    auto makes = std::make_shared<std::atomic<u32>>(0);
    SweepJob flaky;
    flaky.label = "flaky-traced";
    flaky.maxCycles = 1'000'000;
    flaky.withTrace = true;
    flaky.make = [makes] {
        const bool first = makes->fetch_add(1) == 0;
        return std::make_unique<RocketCore>(
            RocketConfig{},
            first ? faultsAfter(100'000) : countLoop(100'000));
    };
    SweepJob clean = flaky;
    clean.make = [] {
        return std::make_unique<RocketCore>(RocketConfig{},
                                            countLoop(100'000));
    };
    const std::string root = "/tmp/icicle_sweep_abandon";
    std::filesystem::remove_all(root);
    auto run = [&](const SweepJob &job, const std::string &name,
                   u32 attempts) {
        SweepOptions options;
        options.maxAttempts = attempts;
        options.chunkCycles = 4096;
        options.traceOutDir = root + "/" + name;
        std::filesystem::create_directories(options.traceOutDir);
        return runSweepJobs({job}, options).front();
    };

    const SweepResult failed = run(flaky, "failed", 1);
    EXPECT_EQ(failed.status, SweepStatus::Failed);
    EXPECT_TRUE(failed.traceStore.empty());
    EXPECT_TRUE(listing(root + "/failed").empty());

    makes->store(0);
    const SweepResult retried = run(flaky, "retried", 2);
    ASSERT_EQ(retried.status, SweepStatus::Ok) << retried.error;
    EXPECT_EQ(retried.attempts, 2u);
    const SweepResult golden = run(clean, "clean", 1);
    ASSERT_EQ(golden.status, SweepStatus::Ok);
    EXPECT_EQ(listing(root + "/retried"),
              std::vector<std::string>{"flaky-traced.icst"});
    const std::string want = slurp(sweepTracePath(root + "/clean",
                                                  clean.label));
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(slurp(sweepTracePath(root + "/retried", flaky.label)),
              want);
    std::filesystem::remove_all(root);
}

#ifdef __linux__
/** This process's peak resident set (VmHWM), in bytes. */
u64
peakResidentBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6)) * 1024;
    }
    ADD_FAILURE() << "no VmHWM line in /proc/self/status";
    return 0;
}

TEST(SweepEngine, TracedPointHoldsOneBlockNotItsTrace)
{
    // A 4M-cycle traced point streams into its store: its peak memory
    // is one store block and the analyzer's delay line, not the 32 MiB
    // a buffered trace of 8 bytes per cycle would take.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    // A sanitizer's allocator keeps freed blocks out of reuse (ASan's
    // quarantine) or shadows them, so the peak there measures the
    // sanitizer, not the capture.
    GTEST_SKIP() << "peak resident memory is not meaningful under a "
                    "sanitizer allocator";
#endif
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"541.leela_r"};
    grid.maxCycles = 4'000'000;
    grid.withTrace = true;
    const std::string dir = "/tmp/icicle_sweep_traced_memory";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SweepOptions options;
    options.traceOutDir = dir;
    const u64 before = peakResidentBytes();
    const std::vector<SweepResult> results = runSweep(grid, options);
    const u64 added = peakResidentBytes() - before;
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0].status, SweepStatus::Ok);
    EXPECT_EQ(results[0].cycles, grid.maxCycles);
    EXPECT_FALSE(results[0].traceStore.empty());
    EXPECT_LT(added, 8ull << 20)
        << "the traced point raised the peak by " << added << " bytes";
    std::filesystem::remove_all(dir);
}
#endif

// ---- journal / resume ------------------------------------------------

std::vector<SweepJob>
twoCountJobs()
{
    std::vector<SweepJob> jobs;
    for (const char *label : {"count-a", "count-b"}) {
        SweepJob job;
        job.label = label;
        job.maxCycles = 100'000;
        job.make = [] {
            return std::make_unique<RocketCore>(RocketConfig{},
                                                countLoop(500));
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(SweepJournalFile, ResumeRestoresRecordsBitExactly)
{
    const std::string path = "/tmp/icicle_journal_unit.bin";
    std::remove(path.c_str());
    const std::vector<SweepJob> jobs = twoCountJobs();
    const u32 hash = sweepGridHash(jobs);

    // Run the full grid with a journal.
    SweepOptions options;
    options.journalPath = path;
    const std::vector<SweepResult> first =
        runSweepJobs(jobs, options);
    ASSERT_EQ(first.size(), 2u);

    // Resuming the finished journal restores both points without
    // re-running anything, bit-exactly.
    SweepJournal journal;
    const std::vector<SweepResult> restored =
        journal.resume(path, hash, jobs.size());
    journal.close();
    ASSERT_EQ(restored.size(), 2u);
    for (u64 i = 0; i < 2; i++) {
        EXPECT_EQ(restored[i].index, first[i].index);
        EXPECT_EQ(restored[i].status, first[i].status);
        EXPECT_EQ(restored[i].cycles, first[i].cycles);
        // Doubles travel as raw bit patterns: exact, not approximate.
        EXPECT_EQ(restored[i].ipc, first[i].ipc);
        EXPECT_EQ(restored[i].tma.retiring, first[i].tma.retiring);
        EXPECT_EQ(restored[i].counters.retiredUops,
                  first[i].counters.retiredUops);
    }
    std::remove(path.c_str());
}

TEST(SweepJournalFile, TornTailIsDroppedOnResume)
{
    const std::string path = "/tmp/icicle_journal_torn.bin";
    std::remove(path.c_str());
    const std::vector<SweepJob> jobs = twoCountJobs();
    const u32 hash = sweepGridHash(jobs);
    SweepOptions options;
    options.journalPath = path;
    runSweepJobs(jobs, options);

    // Tear the last record: chop 7 bytes off the file.
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 7);

    SweepJournal journal;
    const std::vector<SweepResult> restored =
        journal.resume(path, hash, jobs.size());
    journal.close();
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored[0].index, 0u);
    // The torn bytes were truncated away: a second resume sees a
    // clean single-record journal.
    SweepJournal again;
    EXPECT_EQ(again.resume(path, hash, jobs.size()).size(), 1u);
    std::remove(path.c_str());
}

TEST(SweepJournalFile, RefusesAForeignGrid)
{
    const std::string path = "/tmp/icicle_journal_foreign.bin";
    std::remove(path.c_str());
    const std::vector<SweepJob> jobs = twoCountJobs();
    SweepOptions options;
    options.journalPath = path;
    runSweepJobs(jobs, options);

    SweepJournal journal;
    // Wrong hash, wrong job count: both must refuse loudly.
    EXPECT_THROW(journal.resume(path, sweepGridHash(jobs) ^ 1,
                                jobs.size()),
                 FatalError);
    EXPECT_THROW(journal.resume(path, sweepGridHash(jobs),
                                jobs.size() + 1),
                 FatalError);
    std::remove(path.c_str());
}

TEST(SweepJournalFile, ForeignGridDiagnosticNamesPathAndBothHashes)
{
    // Regression: the mismatch diagnostic used to say only "grid
    // hash mismatch", leaving the user to guess which journal and
    // which grids. It must name the journal path and print both
    // hashes in hex so the two campaigns can actually be compared.
    const std::string path = "/tmp/icicle_journal_diag.bin";
    std::remove(path.c_str());
    const std::vector<SweepJob> jobs = twoCountJobs();
    const u32 journal_hash = sweepGridHash(jobs);
    const u32 campaign_hash = journal_hash ^ 0x5a5a;
    SweepOptions options;
    options.journalPath = path;
    runSweepJobs(jobs, options);

    auto hex = [](u32 hash) {
        char text[16];
        std::snprintf(text, sizeof text, "0x%08x", hash);
        return std::string(text);
    };
    SweepJournal journal;
    try {
        journal.resume(path, campaign_hash, jobs.size());
        FAIL() << "foreign grid resumed";
    } catch (const FatalError &err) {
        const std::string diag = err.what();
        EXPECT_NE(diag.find(path), std::string::npos) << diag;
        EXPECT_NE(diag.find(hex(journal_hash)), std::string::npos)
            << diag;
        EXPECT_NE(diag.find(hex(campaign_hash)), std::string::npos)
            << diag;
        EXPECT_NE(diag.find("refusing to resume"),
                  std::string::npos)
            << diag;
    }
    std::remove(path.c_str());
}

TEST(SweepEngine, ResumeAfterInjectedFailureIsByteIdentical)
{
    // A point that fails on every attempt of the first campaign is
    // journaled as Failed; the resumed campaign re-runs only that
    // point (now healthy) and the final report is byte-identical to
    // an uninterrupted clean run.
    const std::string path = "/tmp/icicle_journal_resume.bin";
    std::remove(path.c_str());
    const std::vector<SweepJob> jobs = twoCountJobs();

    SweepOptions clean_options;
    const std::vector<SweepResult> golden =
        runSweepJobs(jobs, clean_options);

    setFaultSpec("fail@job#1=2");
    SweepOptions first_options;
    first_options.journalPath = path;
    first_options.maxAttempts = 2;
    const std::vector<SweepResult> first =
        runSweepJobs(jobs, first_options);
    setFaultSpec("");
    ASSERT_EQ(first[0].status, SweepStatus::Ok);
    ASSERT_EQ(first[1].status, SweepStatus::Failed);
    EXPECT_NE(first[1].error.find("injected fault"),
              std::string::npos);

    SweepOptions resume_options;
    resume_options.journalPath = path;
    resume_options.resume = true;
    u32 reran = 0;
    resume_options.onResult = [&](const SweepResult &r) {
        if (r.index == 1)
            reran++;
    };
    const std::vector<SweepResult> resumed =
        runSweepJobs(jobs, resume_options);
    EXPECT_EQ(reran, 1u);
    EXPECT_EQ(formatSweepCsv(resumed), formatSweepCsv(golden));
    EXPECT_EQ(formatSweepJson(resumed), formatSweepJson(golden));
    EXPECT_EQ(formatSweepTable(resumed), formatSweepTable(golden));
    std::remove(path.c_str());
}

TEST(SweepEngine, InjectedHangTimesOutInsteadOfWedging)
{
    setFaultSpec("hang@job#0");
    std::vector<SweepJob> jobs = twoCountJobs();
    SweepOptions options;
    options.timeoutSec = 0.05;
    options.maxAttempts = 1;
    const std::vector<SweepResult> results =
        runSweepJobs(jobs, options);
    setFaultSpec("");
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, SweepStatus::Timeout);
    EXPECT_EQ(results[1].status, SweepStatus::Ok);
}

TEST(SweepEngine, JournalFailureInAWorkerIsRethrownToTheCaller)
{
    // Regression: a FatalError from a journal append inside a worker
    // thread escaped the std::thread and called std::terminate. It
    // must stop the sweep and reach the caller, as with one worker.
    const std::string path = "/tmp/icicle_journal_enospc.bin";
    std::remove(path.c_str());
    setFaultSpec("enospc@journal#1");
    SweepOptions options;
    options.workers = 2;
    options.journalPath = path;
    EXPECT_THROW(runSweepJobs(twoCountJobs(), options), FatalError);
    setFaultSpec("");
    std::remove(path.c_str());
}

TEST(SweepEngine, UnknownWorkloadBecomesFailedRow)
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"no-such-workload"};
    const std::vector<SweepResult> results = runSweep(grid, {});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, SweepStatus::Failed);
    EXPECT_NE(results[0].error.find("no-such-workload"),
              std::string::npos);
}

// ---- runs: one simulation per (core, workload) pair ------------------

/** Programs mhpmevent3 to count retired instructions, unmasks it,
 * runs a short loop, and exits with the hpmcounter3 value it reads. */
Program
readsConfiguredCounter()
{
    const EventId event = EventId::InstRetired;
    const u64 selector = csr::selector(
        eventInfo(CoreKind::Rocket, event).set,
        1ull << maskBitOf(CoreKind::Rocket, event));
    ProgramBuilder b("hpm-read");
    b.li(t0, static_cast<i64>(selector));
    b.csrrw(zero, csr::mhpmevent3, t0);
    b.csrrwi(zero, csr::mcountinhibit, 0);
    Label loop = b.newLabel();
    b.li(t2, 300);
    b.bind(loop);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.csrrs(a0, csr::hpmcounter3, zero);
    b.halt();
    return b.build();
}

/** One Rocket job per counter architecture over `program`, all with
 * run key `run`; every factory call bumps `makes`. */
std::vector<SweepJob>
archJobs(const Program &program, u64 run,
         const std::shared_ptr<std::atomic<u32>> &makes)
{
    std::vector<SweepJob> jobs;
    for (CounterArch arch : {CounterArch::Scalar, CounterArch::AddWires,
                             CounterArch::Distributed}) {
        SweepJob job;
        job.label = program.name + "/" + counterArchName(arch);
        job.maxCycles = 100'000;
        job.run = run;
        job.point.counterArch = arch;
        job.make = [program, arch, makes] {
            makes->fetch_add(1);
            RocketConfig config;
            config.counterArch = arch;
            return std::make_unique<RocketCore>(config, program);
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(SweepRuns, KeyedJobsSimulateOnceAndMatchUnsharedRuns)
{
    auto makes = std::make_shared<std::atomic<u32>>(0);
    const auto start = std::chrono::steady_clock::now();
    const std::vector<SweepResult> shared =
        runSweepJobs(archJobs(countLoop(500), 1, makes));
    const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    EXPECT_EQ(makes->load(), 1u);
    ASSERT_EQ(shared.size(), 3u);
    // The run's wall time is split across the members it answered,
    // so on one worker the rows' wall times sum to no more than the
    // sweep took.
    EXPECT_GT(shared[0].wallMs, 0.0);
    EXPECT_EQ(shared[1].wallMs, shared[0].wallMs);
    EXPECT_EQ(shared[2].wallMs, shared[0].wallMs);
    EXPECT_LE(3 * shared[0].wallMs, elapsed_ms);

    makes->store(0);
    const std::vector<SweepResult> unshared =
        runSweepJobs(archJobs(countLoop(500), 0, makes));
    EXPECT_EQ(makes->load(), 3u);
    EXPECT_EQ(formatSweepCsv(shared), formatSweepCsv(unshared));
    EXPECT_EQ(formatSweepJson(shared), formatSweepJson(unshared));
}

TEST(SweepRuns, InBandCounterReadRunsEachArchitectureOnItsOwn)
{
    // The program reads a counter it configured, so the architecture
    // could steer it: sharing must fall back to one run per member.
    auto makes = std::make_shared<std::atomic<u32>>(0);
    SweepOptions options;
    options.workers = 2;
    const std::vector<SweepResult> keyed = runSweepJobs(
        archJobs(readsConfiguredCounter(), 1, makes), options);
    EXPECT_EQ(makes->load(), 3u);
    const std::vector<SweepResult> unshared = runSweepJobs(
        archJobs(readsConfiguredCounter(), 0, makes), options);
    EXPECT_EQ(formatSweepCsv(keyed), formatSweepCsv(unshared));
    EXPECT_EQ(formatSweepJson(keyed), formatSweepJson(unshared));
    for (const SweepResult &row : keyed) {
        EXPECT_EQ(row.status, SweepStatus::Ok) << row.label;
        EXPECT_GT(row.exitCode, 0u) << row.label;
    }
    // The distributed counter's principal lags the exact count, so a
    // shared simulation would have reported the wrong exit code.
    EXPECT_NE(keyed[2].exitCode, keyed[1].exitCode);
}

TEST(SweepRuns, ResumeFromAPartialRunSimulatesItOnce)
{
    const std::string path = "/tmp/icicle_journal_partial_run.bin";
    std::remove(path.c_str());
    auto makes = std::make_shared<std::atomic<u32>>(0);
    const std::vector<SweepJob> jobs = archJobs(countLoop(500), 1, makes);
    const std::vector<SweepResult> golden = runSweepJobs(jobs);

    // The second append fails: the journal holds only member 0.
    setFaultSpec("enospc@journal#1");
    SweepOptions options;
    options.journalPath = path;
    EXPECT_THROW(runSweepJobs(jobs, options), FatalError);
    setFaultSpec("");
    SweepJournal journal;
    const std::vector<SweepResult> journaled =
        journal.resume(path, sweepGridHash(jobs), jobs.size());
    journal.close();
    ASSERT_EQ(journaled.size(), 1u);
    EXPECT_EQ(journaled[0].index, 0u);

    makes->store(0);
    options.resume = true;
    // Member 0 is reported once, as restored; only 1 and 2 re-run.
    std::vector<u32> reported(jobs.size(), 0);
    options.onResult = [&](const SweepResult &r) { reported[r.index]++; };
    const std::vector<SweepResult> resumed = runSweepJobs(jobs, options);
    EXPECT_EQ(makes->load(), 1u);
    EXPECT_EQ(reported, std::vector<u32>(jobs.size(), 1));
    EXPECT_EQ(formatSweepCsv(resumed), formatSweepCsv(golden));
    EXPECT_EQ(formatSweepJson(resumed), formatSweepJson(golden));
    EXPECT_EQ(formatSweepTable(resumed), formatSweepTable(golden));
    std::remove(path.c_str());
}

TEST(SweepRuns, JobFaultDecidesTheWholeRunsAttempt)
{
    const std::string path = "/tmp/icicle_journal_run_fault.bin";
    std::remove(path.c_str());
    auto makes = std::make_shared<std::atomic<u32>>(0);
    const std::vector<SweepJob> jobs = archJobs(countLoop(500), 1, makes);
    const std::vector<SweepResult> golden = runSweepJobs(jobs);

    setFaultSpec("fail@job#1=2");
    SweepOptions options;
    options.journalPath = path;
    options.maxAttempts = 2;
    const std::vector<SweepResult> failed = runSweepJobs(jobs, options);
    setFaultSpec("");
    for (const SweepResult &row : failed) {
        EXPECT_EQ(row.status, SweepStatus::Failed) << row.label;
        EXPECT_EQ(row.attempts, 2u) << row.label;
        EXPECT_NE(row.error.find("fail@job#1"), std::string::npos)
            << row.error;
    }

    makes->store(0);
    options.resume = true;
    const std::vector<SweepResult> resumed = runSweepJobs(jobs, options);
    EXPECT_EQ(makes->load(), 1u);
    EXPECT_EQ(formatSweepCsv(resumed), formatSweepCsv(golden));
    EXPECT_EQ(formatSweepJson(resumed), formatSweepJson(golden));
    EXPECT_EQ(formatSweepTable(resumed), formatSweepTable(golden));
    std::remove(path.c_str());
}

TEST(SweepRuns, SharedTracedRunWritesIdenticalStoresPerArch)
{
    // One capture, compressed once: every arch's store is a byte copy
    // of the first, under its own name, and no tmp is left.
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"towers"};
    grid.counterArchs = {CounterArch::Scalar, CounterArch::AddWires,
                         CounterArch::Distributed};
    grid.maxCycles = 300'000;
    grid.withTrace = true;
    const std::string dir = "/tmp/icicle_sweep_store_copies";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SweepOptions options;
    options.traceOutDir = dir;
    const std::vector<SweepResult> results = runSweep(grid, options);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(listing(dir).size(), 3u);
    const std::string first =
        slurp(sweepTracePath(dir, results[0].label));
    ASSERT_FALSE(first.empty());
    for (const SweepResult &row : results) {
        SCOPED_TRACE(row.label);
        ASSERT_EQ(row.status, SweepStatus::Ok);
        EXPECT_EQ(dir + "/" + row.traceStore,
                  sweepTracePath(dir, row.label));
        EXPECT_EQ(slurp(sweepTracePath(dir, row.label)), first);
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepRuns, SharedGridMatchesPerArchRunsByteForByte)
{
    // Reports, journal bytes and every --trace-out store of a 3-arch
    // grid equal those of the same points simulated one by one.
    GridSpec grid;
    grid.cores = {"rocket", "boom-small"};
    grid.workloads = {"vvadd", "towers"};
    grid.counterArchs = {CounterArch::Scalar, CounterArch::AddWires,
                         CounterArch::Distributed};
    grid.maxCycles = 300'000;
    grid.withTrace = true;
    std::vector<SweepJob> unkeyed;
    for (const SweepPoint &point : grid.expand()) {
        SweepJob job;
        job.label = sweepPointLabel(point);
        job.maxCycles = point.maxCycles;
        job.withTrace = point.withTrace;
        job.point = point;
        job.make = [point] {
            return makeSweepCore(point.core, point.counterArch,
                                 buildWorkload(point.workload));
        };
        unkeyed.push_back(std::move(job));
    }

    const std::string root = "/tmp/icicle_sweep_shared_runs";
    std::filesystem::remove_all(root);
    auto run = [&](const std::string &name, u32 workers,
                   const std::vector<SweepJob> *jobs) {
        SweepOptions options;
        options.workers = workers;
        options.traceOutDir = root + "/" + name;
        options.journalPath = root + "/" + name + ".icjn";
        std::filesystem::create_directories(options.traceOutDir);
        return jobs ? runSweepJobs(*jobs, options)
                    : runSweep(grid, options);
    };
    const std::vector<SweepResult> per_arch = run("per-arch", 1, &unkeyed);
    const std::vector<SweepResult> shared = run("shared", 1, nullptr);
    const std::vector<SweepResult> shared4 = run("shared4", 4, nullptr);
    ASSERT_EQ(per_arch.size(), 12u);
    for (const std::vector<SweepResult> *rows : {&shared, &shared4}) {
        EXPECT_EQ(formatSweepCsv(*rows), formatSweepCsv(per_arch));
        EXPECT_EQ(formatSweepJson(*rows), formatSweepJson(per_arch));
        EXPECT_EQ(formatSweepTable(*rows), formatSweepTable(per_arch));
    }
    EXPECT_EQ(slurp(root + "/shared.icjn"),
              slurp(root + "/per-arch.icjn"));
    for (const SweepResult &row : per_arch) {
        SCOPED_TRACE(row.label);
        ASSERT_EQ(row.status, SweepStatus::Ok);
        const std::string want =
            slurp(sweepTracePath(root + "/per-arch", row.label));
        ASSERT_FALSE(want.empty());
        EXPECT_EQ(slurp(sweepTracePath(root + "/shared", row.label)),
                  want);
        EXPECT_EQ(slurp(sweepTracePath(root + "/shared4", row.label)),
                  want);
    }
    std::filesystem::remove_all(root);
}

} // namespace
} // namespace icicle
