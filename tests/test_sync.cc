/**
 * @file
 * Lock-discipline runtime tests (common/sync.hh + common/lockorder):
 * lock-class registration and dedup, per-thread held-lock stacks,
 * order-graph edges with first-witness stacks, rank-inversion
 * reporting with both witness stacks, multi-node cycle detection with
 * canonical (deterministic) rendering, the disarmed fast path, the
 * fork-safety check, and the JSON/LintReport renderings icicle-sync
 * serves. Under ICICLE_MUTANTS, the seeded rank-inversion mutant must
 * be caught with the exact two-class cycle (non-vacuity).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/diagnostics.hh"
#include "common/lockorder.hh"
#include "common/logging.hh"
#include "common/sync.hh"
#include "fault/fault.hh"
#include "serve/chaos.hh"
#include "serve/client.hh"
#include "serve/server.hh"

#if defined(__SANITIZE_THREAD__)
#define ICICLE_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ICICLE_TSAN_BUILD 1
#endif
#endif

#ifdef ICICLE_TSAN_BUILD
// Several tests below construct genuinely inverted acquisition
// orders on purpose — that IS the behavior under test, taken
// single-threaded so nothing can actually deadlock. TSan's own
// lock-order detector (rightly) reports each one; our runtime must
// report them too, so TSan's detector is silenced for this binary
// only and the assertions on lockOrderReport() do the judging.
extern "C" const char *
__tsan_default_options()
{
    return "detect_deadlocks=0";
}
#endif

namespace icicle
{
namespace
{

using lockorder::LockEdge;
using lockorder::LockOrderReport;
using lockorder::LockViolation;

/** Arm the runtime and start from a clean slate, pass or fail. */
class SyncTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        lockorder::setLockOrderEnabled(true);
        lockorder::resetLockOrder();
    }

    void
    TearDown() override
    {
        lockorder::resetLockOrder();
        lockorder::setLockOrderEnabled(true);
    }
};

const LockEdge *
findEdge(const LockOrderReport &report, const std::string &from,
         const std::string &to)
{
    for (const LockEdge &edge : report.edges) {
        if (edge.from == from && edge.to == to)
            return &edge;
    }
    return nullptr;
}

const LockViolation *
findViolation(const LockOrderReport &report, const std::string &kind,
              const std::string &cls)
{
    for (const LockViolation &violation : report.violations) {
        if (violation.kind != kind)
            continue;
        if (std::find(violation.classes.begin(),
                      violation.classes.end(),
                      cls) != violation.classes.end())
            return &violation;
    }
    return nullptr;
}

bool
hasNode(const LockOrderReport &report, const std::string &name)
{
    for (const auto &node : report.nodes) {
        if (node.name == name)
            return true;
    }
    return false;
}

TEST_F(SyncTest, ClassesDedupeByNameAcrossInstances)
{
    Mutex first("test.sync.dedupe", 700);
    Mutex second("test.sync.dedupe", 700);
    EXPECT_EQ(first.lockClass(), second.lockClass());

    // Instances of one class are one graph node: nesting two
    // same-class instances records a self-edge, not two nodes.
    {
        LockGuard outer(first);
        LockGuard inner(second);
    }
    const LockOrderReport report = lockorder::lockOrderReport();
    const LockEdge *self =
        findEdge(report, "test.sync.dedupe", "test.sync.dedupe");
    ASSERT_NE(self, nullptr);
    EXPECT_EQ(self->count, 1u);
}

TEST_F(SyncTest, HeldStackTracksAcquisitionOrder)
{
    Mutex outer("test.sync.held.outer", 701);
    Mutex inner("test.sync.held.inner", 702);
    EXPECT_EQ(lockorder::heldLockCount(), 0u);
    {
        LockGuard a(outer);
        EXPECT_EQ(lockorder::heldLockCount(), 1u);
        {
            LockGuard b(inner);
            const std::vector<std::string> held =
                lockorder::heldLockNames();
            ASSERT_EQ(held.size(), 2u);
            // Outermost first.
            EXPECT_EQ(held[0], "test.sync.held.outer");
            EXPECT_EQ(held[1], "test.sync.held.inner");
        }
        EXPECT_EQ(lockorder::heldLockCount(), 1u);
    }
    EXPECT_EQ(lockorder::heldLockCount(), 0u);
}

TEST_F(SyncTest, HeldStackIsPerThread)
{
    Mutex mine("test.sync.perthread", 703);
    LockGuard lock(mine);
    u32 other_count = 99;
    std::thread peer(
        [&other_count] { other_count = lockorder::heldLockCount(); });
    peer.join();
    EXPECT_EQ(other_count, 0u);
    EXPECT_EQ(lockorder::heldLockCount(), 1u);
}

TEST_F(SyncTest, EdgesCarryCountsAndFirstWitness)
{
    Mutex outer("test.sync.edge.outer", 704);
    Mutex middle("test.sync.edge.middle", 705);
    Mutex inner("test.sync.edge.inner", 706);
    for (int i = 0; i < 3; i++) {
        LockGuard a(outer);
        LockGuard b(middle);
        LockGuard c(inner);
    }
    const LockOrderReport report = lockorder::lockOrderReport();
    EXPECT_TRUE(report.clean());

    const LockEdge *direct = findEdge(report, "test.sync.edge.outer",
                                      "test.sync.edge.middle");
    ASSERT_NE(direct, nullptr);
    EXPECT_EQ(direct->count, 3u);
    const std::vector<std::string> expect_direct = {
        "test.sync.edge.outer", "test.sync.edge.middle"};
    EXPECT_EQ(direct->witness, expect_direct);

    // Acquiring `inner` with two locks held records an edge from
    // EVERY held class, each with the full stack as witness.
    const LockEdge *skip = findEdge(report, "test.sync.edge.outer",
                                    "test.sync.edge.inner");
    ASSERT_NE(skip, nullptr);
    const std::vector<std::string> expect_skip = {
        "test.sync.edge.outer", "test.sync.edge.middle",
        "test.sync.edge.inner"};
    EXPECT_EQ(skip->witness, expect_skip);
}

TEST_F(SyncTest, RankInversionReportsBothWitnessStacks)
{
    Mutex low("test.sync.inv.low", 710);
    Mutex high("test.sync.inv.high", 711);
    {
        LockGuard a(low);
        LockGuard b(high); // legal: rank increases
    }
    {
        LockGuard b(high);
        LockGuard a(low); // inversion, and closes a 2-cycle
    }
    const LockOrderReport report = lockorder::lockOrderReport();
    EXPECT_FALSE(report.clean());
    EXPECT_FALSE(report.cycleFree);

    const LockViolation *inversion =
        findViolation(report, "rank-inversion", "test.sync.inv.low");
    ASSERT_NE(inversion, nullptr);
    // Witness 1: the inverted acquisition; witness 2: the stack that
    // established the forward edge.
    ASSERT_EQ(inversion->witnesses.size(), 2u);
    const std::vector<std::string> inverted = {"test.sync.inv.high",
                                               "test.sync.inv.low"};
    const std::vector<std::string> forward = {"test.sync.inv.low",
                                              "test.sync.inv.high"};
    EXPECT_EQ(inversion->witnesses[0], inverted);
    EXPECT_EQ(inversion->witnesses[1], forward);

    const LockViolation *cycle =
        findViolation(report, "cycle", "test.sync.inv.low");
    ASSERT_NE(cycle, nullptr);
    EXPECT_EQ(cycle->witnesses.size(), cycle->classes.size());
}

TEST_F(SyncTest, ThreeNodeCycleDetectedWithoutPairwiseInversion)
{
    // Each pairwise order looks locally plausible; only the global
    // graph walk sees a -> b -> c -> a. (Taken sequentially on one
    // thread: the cycle lives in the order graph, nothing deadlocks.)
    Mutex a("test.sync.cycle.a", 720);
    Mutex b("test.sync.cycle.b", 721);
    Mutex c("test.sync.cycle.c", 722);
    {
        LockGuard first(a);
        LockGuard second(b);
    }
    {
        LockGuard first(b);
        LockGuard second(c);
    }
    {
        LockGuard first(c);
        LockGuard second(a);
    }
    const LockOrderReport report = lockorder::lockOrderReport();
    EXPECT_FALSE(report.cycleFree);
    const LockViolation *cycle =
        findViolation(report, "cycle", "test.sync.cycle.a");
    ASSERT_NE(cycle, nullptr);
    // Canonical rotation: lexicographically smallest class first.
    const std::vector<std::string> expected = {"test.sync.cycle.a",
                                              "test.sync.cycle.b",
                                              "test.sync.cycle.c"};
    EXPECT_EQ(cycle->classes, expected);
    EXPECT_EQ(cycle->witnesses.size(), 3u);
}

TEST_F(SyncTest, ReportIsDeterministic)
{
    Mutex a("test.sync.det.a", 730);
    Mutex b("test.sync.det.b", 731);
    {
        LockGuard first(a);
        LockGuard second(b);
    }
    {
        LockGuard second(b);
        LockGuard first(a); // inversion + cycle, for rendering
    }
    const std::string once = lockorder::lockOrderReport().toJson();
    const std::string again = lockorder::lockOrderReport().toJson();
    EXPECT_EQ(once, again);
    EXPECT_NE(once.find("\"cycle_free\":false"), std::string::npos);
}

TEST_F(SyncTest, DisarmedTracksHeldStackButRecordsNoEdges)
{
    lockorder::setLockOrderEnabled(false);
    EXPECT_FALSE(lockorder::lockOrderEnabled());
    Mutex outer("test.sync.off.outer", 740);
    Mutex inner("test.sync.off.inner", 741);
    {
        LockGuard a(outer);
        // The held stack stays truthful while disarmed (arming
        // mid-run and the fork check depend on it)...
        EXPECT_EQ(lockorder::heldLockCount(), 1u);
        LockGuard b(inner);
    }
    lockorder::setLockOrderEnabled(true);
    // ...but no observations were recorded.
    const LockOrderReport report = lockorder::lockOrderReport();
    EXPECT_EQ(findEdge(report, "test.sync.off.outer",
                       "test.sync.off.inner"),
              nullptr);
    EXPECT_TRUE(report.clean());
}

TEST_F(SyncTest, ResetClearsObservationsButKeepsClasses)
{
    Mutex outer("test.sync.reset.outer", 750);
    Mutex inner("test.sync.reset.inner", 751);
    {
        LockGuard a(outer);
        LockGuard b(inner);
    }
    ASSERT_NE(findEdge(lockorder::lockOrderReport(),
                       "test.sync.reset.outer",
                       "test.sync.reset.inner"),
              nullptr);
    lockorder::resetLockOrder();
    const LockOrderReport report = lockorder::lockOrderReport();
    EXPECT_EQ(findEdge(report, "test.sync.reset.outer",
                       "test.sync.reset.inner"),
              nullptr);
    // Classes are compiled-in facts, not observations.
    EXPECT_TRUE(hasNode(report, "test.sync.reset.outer"));
}

TEST_F(SyncTest, ForkSafetyFlagsDisallowedHeldLocks)
{
    Mutex held("test.sync.fork.held", 760);
    const u64 before = lockorder::forkViolations();

    // Nothing held: fork-safe.
    EXPECT_EQ(lockorder::checkForkSafety("test.site", {}), 0u);

    LockGuard lock(held);
    // Held but allowed: still fork-safe.
    EXPECT_EQ(lockorder::checkForkSafety("test.site",
                                         {"test.sync.fork.held"}),
              0u);
    EXPECT_EQ(lockorder::forkViolations(), before);

    // Held and not allowed: one SYNC-003 violation with the held
    // stack as witness.
    EXPECT_EQ(lockorder::checkForkSafety("test.site", {}), 1u);
    EXPECT_EQ(lockorder::forkViolations(), before + 1);
    const LockOrderReport report = lockorder::lockOrderReport();
    const LockViolation *violation = findViolation(
        report, "fork-held-lock", "test.sync.fork.held");
    ASSERT_NE(violation, nullptr);
    EXPECT_NE(violation->message.find("test.site"),
              std::string::npos);
    EXPECT_FALSE(report.clean());
}

TEST_F(SyncTest, CondVarWaitKeepsLockOnHeldStack)
{
    Mutex mutex("test.sync.cv", 770);
    CondVar cv;
    bool ready = false;
    std::thread waker([&] {
        LockGuard lock(mutex);
        ready = true;
        cv.notifyAll();
    });
    {
        UniqueLock lock(mutex);
        while (!ready)
            cv.wait(lock);
        // Reacquired after the wait: still (exactly once) on the
        // held stack.
        EXPECT_EQ(lockorder::heldLockCount(), 1u);
    }
    waker.join();
    EXPECT_EQ(lockorder::heldLockCount(), 0u);
}

TEST_F(SyncTest, LintReportAlwaysCarriesTheSummaryRule)
{
    const LintReport clean =
        lockorder::lockOrderReport().toLintReport();
    EXPECT_TRUE(clean.hasRule("SYNC-000"));
    EXPECT_EQ(clean.errorCount(), 0u);

    Mutex low("test.sync.lint.low", 780);
    Mutex high("test.sync.lint.high", 781);
    {
        LockGuard a(low);
        LockGuard b(high);
    }
    {
        LockGuard b(high);
        LockGuard a(low);
    }
    const LintReport dirty =
        lockorder::lockOrderReport().toLintReport();
    EXPECT_TRUE(dirty.hasRule("SYNC-001"));
    EXPECT_TRUE(dirty.hasRule("SYNC-002"));
    EXPECT_GT(dirty.errorCount(), 0u);
}

#ifdef ICICLE_MUTANTS
TEST_F(SyncTest, SeededRankInversionMutantIsCaughtExactly)
{
    lockorder::runRankInversionMutant();
    const LockOrderReport report = lockorder::lockOrderReport();
    EXPECT_FALSE(report.clean());
    const LockViolation *cycle =
        findViolation(report, "cycle", lockorder::kMutantLockA);
    ASSERT_NE(cycle, nullptr);
    const std::vector<std::string> expected = {
        lockorder::kMutantLockA, lockorder::kMutantLockB};
    EXPECT_EQ(cycle->classes, expected);
    ASSERT_NE(findViolation(report, "rank-inversion",
                            lockorder::kMutantLockA),
              nullptr);
}
#else
TEST_F(SyncTest, MutantHookIsFatalWithoutTheMutantBuild)
{
    // The self-test must be impossible to "pass" silently on a build
    // that never seeded the bug.
    EXPECT_THROW(lockorder::runRankInversionMutant(), FatalError);
}
#endif

// ---- the serving path's lock graph ----------------------------------

/**
 * A miniature chaos drive (clean lane, both overload gates armed)
 * run under this fixture's lock-order runtime: every lock nesting
 * the serving path exercises — conn bookkeeping, the miss path
 * (queue gate and flight table), the worker pool, stats — lands in
 * the graph, and the graph must come back cycle-free with the
 * dispatch classes registered. The flight table and the pool are
 * held only to admit, claim or end a flight and to check a worker
 * out or in, so neither ever nests inside the other. This is the
 * executable form of DESIGN.md's rank table for the serving locks.
 */
TEST_F(SyncTest, ChaosDriveKeepsTheServeLockGraphCycleFree)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "sync_chaos";
    std::filesystem::remove_all(dir);

    ChaosOptions opts;
    opts.dir = dir;
    opts.clean = true;
    opts.episodes = 1;
    opts.clients = 2;
    opts.requestsPerClient = 1;
    opts.maxCycles = 20'000;
    opts.server.shards = 1;
    opts.server.maxConns = 8;
    opts.server.maxQueue = 2;
    const ChaosVerdict verdict = runChaos(opts);
    EXPECT_TRUE(verdict.pass()) << verdict.format();

    const LockOrderReport report = lockorder::lockOrderReport();
    EXPECT_TRUE(report.clean()) << report.format();
    EXPECT_TRUE(hasNode(report, "serve.flights"));
    EXPECT_TRUE(hasNode(report, "serve.pool"));
    EXPECT_EQ(findEdge(report, "serve.flights", "serve.pool"), nullptr)
        << report.format();
    EXPECT_EQ(findEdge(report, "serve.pool", "serve.flights"), nullptr)
        << report.format();

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

/**
 * Regression for the failure-path slot release: a failed job under
 * an armed miss-path cap must give back its slot when its flight
 * ends, or the same run would be shed forever after. The slot and
 * the flight live under one lock (serve.flights), so the release is
 * part of endFlight(); the lock graph must stay clean on this path.
 */
TEST_F(SyncTest, FailedJobReleasesAdmissionSlotAfterItsFlightEnds)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "sync_admission";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    ServerOptions options;
    options.socketPath = dir + "/icicled.sock";
    options.cacheDir = dir + "/cache";
    options.shards = 1;
    options.maxQueue = 1;
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });
    // Both dispatch attempts of the first job SIGKILL their worker
    // (runJob retries once on a respawned worker): runJob fails, and
    // runResults walks the error path while a miss-path slot is
    // reserved and the run's flight is held.
    setFaultSpec("kill@worker#0, kill@worker#1");

    ClientOptions copts;
    copts.maxRetries = 0;
    ServeClient client(options.socketPath, copts);
    SweepQuery query;
    query.cores = {"rocket"};
    query.workloads = {"vvadd"};
    query.archs = {CounterArch::AddWires};
    query.maxCycles = 20'000;
    query.format = "csv";
    // The daemon answers with a typed Error frame (not retriable).
    EXPECT_THROW(client.sweep(query), FatalError);
    setFaultSpec("");
    // The failed run gave back its slot and ended its flight: the
    // same run is admitted (not shed) and filled on a fresh worker.
    try {
        EXPECT_TRUE(client.sweep(query).allOk);
    } catch (const FatalError &err) {
        // ADD_FAILURE, not FAIL: the daemon must still be joined.
        ADD_FAILURE() << "retry of the failed run: " << err.what();
    }
    client.shutdown();
    daemon.join();

    const LockOrderReport report = lockorder::lockOrderReport();
    EXPECT_TRUE(report.clean()) << report.format();

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

} // namespace
} // namespace icicle
