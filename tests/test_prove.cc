/**
 * @file
 * Model-checker and trace-verifier tests.
 *
 * Three layers: (1) the shipped matrix proves clean — every counter
 * architecture and geometry satisfies PROVE-C1/C2/C3; (2) the checker
 * can actually fail — an underwidth Distributed geometry (4 sources,
 * localWidth 1, wrap 2 < sources) must produce PROVE-C1 findings,
 * guarding against a vacuous prover; (3) the PROVE-T trace rules hold
 * on real captures and the live counter/trace/ground-truth cross-check
 * agrees exactly. When the build carries -DICICLE_MUTANTS=ON, the
 * mutant suite additionally requires every seeded bug caught by its
 * registered rule.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "boom/boom.hh"
#include "common/logging.hh"
#include "core/session.hh"
#include "perf/harness.hh"
#include "prove/prove.hh"
#include "prove/trace_check.hh"
#include "store/store.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace icicle
{
namespace
{

bool
hasRule(const LintReport &report, const std::string &rule)
{
    for (const Diagnostic &diag : report.diagnostics()) {
        if (diag.rule == rule && diag.severity == Severity::Error)
            return true;
    }
    return false;
}

/** Temp file that unlinks itself. */
class TempPath
{
  public:
    explicit TempPath(const char *name)
        : path(std::string(::testing::TempDir()) + name)
    {}
    ~TempPath() { std::remove(path.c_str()); }
    const std::string path;
};

TEST(ProveArch, StatelessArchitecturesAreLossless)
{
    for (CounterArch arch :
         {CounterArch::Scalar, CounterArch::AddWires}) {
        for (u32 sources : {1u, 4u, 9u}) {
            ArchProveOptions options;
            options.sources = sources;
            LintReport report;
            const ProveStats stats =
                proveCounterLossless(arch, options, report);
            EXPECT_EQ(report.errorCount(), 0u)
                << counterArchName(arch) << " s" << sources << "\n"
                << report.toJson();
            EXPECT_TRUE(stats.closed);
            EXPECT_EQ(stats.states, 1u)
                << "stateless architectures have one canonical state";
        }
    }
}

TEST(ProveArch, DistributedShippedGeometriesAreLossless)
{
    // Paper-width geometry (localWidth = ceil(log2(sources)), wrap >=
    // sources): the drain always wins the race against the next wrap,
    // so the full reachable space must verify C1 and C2.
    for (u32 sources : {1u, 2u, 3u, 4u, 5u, 8u, 9u}) {
        ArchProveOptions options;
        options.sources = sources;
        options.localWidth = 0; // paper width
        LintReport report;
        const ProveStats stats = proveCounterLossless(
            CounterArch::Distributed, options, report);
        EXPECT_EQ(report.errorCount(), 0u)
            << "s" << sources << "\n" << report.toJson();
        EXPECT_TRUE(stats.closed) << "s" << sources;
        EXPECT_GT(stats.transitions, 0u);
    }
}

TEST(ProveArch, UnderwidthDistributedIsCaught)
{
    // Self-test that the prover is not vacuous: 4 sources at
    // localWidth 1 (wrap 2 < sources) CAN lose events — a local
    // counter can wrap again while its first overflow latch is still
    // waiting for the arbiter. The enumeration must find a concrete
    // PROVE-C1 witness.
    ArchProveOptions options;
    options.sources = 4;
    options.localWidth = 1;
    LintReport report;
    proveCounterLossless(CounterArch::Distributed, options, report);
    EXPECT_GT(report.errorCount(), 0u)
        << "underwidth geometry verified clean: the checker is "
           "vacuous";
    EXPECT_TRUE(hasRule(report, "PROVE-C1")) << report.toJson();
}

TEST(ProveArch, CsrCoherenceHoldsForAllArchitectures)
{
    for (CounterArch arch :
         {CounterArch::Scalar, CounterArch::AddWires,
          CounterArch::Distributed}) {
        CsrProveOptions options;
        options.sources = 4;
        options.horizon = 12;
        LintReport report;
        const ProveStats stats =
            proveCsrCoherence(arch, options, report);
        EXPECT_EQ(report.errorCount(), 0u)
            << counterArchName(arch) << "\n" << report.toJson();
        EXPECT_TRUE(stats.closed) << counterArchName(arch);
    }
}

TEST(ProveArch, ShippedMatrixProvesClean)
{
    // The full CI gate, in-process: every architecture x geometry and
    // both CSR cores, all clean and all closed. The horizon must be
    // >= 30: the widest shipped geometry (9 sources, wrap 16) only
    // closes its reachable set at depth 29. This test doubles as the
    // timing-budget guard — the ctest timeout (far below 60s) fails
    // it if enumeration regresses superlinearly.
    const std::vector<ProveRun> runs = proveArchMatrix(32);
    ASSERT_GE(runs.size(), 18u);
    for (const ProveRun &run : runs) {
        EXPECT_EQ(run.report.errorCount(), 0u)
            << run.name << "\n" << run.report.toJson();
        EXPECT_TRUE(run.stats.closed) << run.name;
        EXPECT_GT(run.stats.transitions, 0u) << run.name;
    }
}

TEST(ProveTrace, CapturedBoomStoreSatisfiesAllRules)
{
    TempPath store("prove_boom.icst");
    std::unique_ptr<Core> core = makeSweepCore(
        "boom-small", CounterArch::AddWires,
        buildWorkload("dhrystone"));
    streamTraceToStore(*core, TraceSpec::tmaBundle(*core), 100000,
                       store.path, 4096);

    StoreReader reader(store.path);
    LintReport report;
    const TraceCheckStats stats =
        checkStoreInvariants(reader, report);
    EXPECT_EQ(report.errorCount(), 0u) << report.toJson();
    EXPECT_TRUE(stats.boomShaped);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_NE(stats.rulesRun.find("T2"), std::string::npos);
    EXPECT_NE(stats.rulesRun.find("T5"), std::string::npos);
    EXPECT_NE(stats.rulesRun.find("T6"), std::string::npos);
}

TEST(ProveTrace, CapturedRocketStoreSkipsBoomOnlyRules)
{
    TempPath store("prove_rocket.icst");
    std::unique_ptr<Core> core = makeSweepCore(
        "rocket", CounterArch::AddWires, buildWorkload("vvadd"));
    streamTraceToStore(*core, TraceSpec::tmaBundle(*core), 100000,
                       store.path, 4096);

    StoreReader reader(store.path);
    LintReport report;
    const TraceCheckStats stats =
        checkStoreInvariants(reader, report);
    EXPECT_EQ(report.errorCount(), 0u) << report.toJson();
    EXPECT_FALSE(stats.boomShaped);
    // Rocket resolves mispredicts after the bubble sample point, so
    // the exclusivity rule must not run on its bundles.
    EXPECT_EQ(stats.rulesRun.find("T2"), std::string::npos)
        << stats.rulesRun;
}

TEST(ProveTrace, EmptyStoreIsAFindingNotACrash)
{
    // A header-only store must produce a PROVE-T1 finding (and the
    // query CLI exits 2 on it — see test_cli), never divide by zero
    // or report vacuous success.
    TempPath empty("prove_empty.icst");
    std::unique_ptr<Core> idle = makeSweepCore(
        "rocket", CounterArch::AddWires, buildWorkload("vvadd"));
    streamTraceToStore(*idle, TraceSpec::tmaBundle(*idle), 0,
                       empty.path, 4096);
    StoreReader reader(empty.path);
    LintReport report;
    const TraceCheckStats stats = checkStoreInvariants(reader, report);
    EXPECT_GT(report.errorCount(), 0u);
    EXPECT_TRUE(hasRule(report, "PROVE-T1"));
    EXPECT_EQ(stats.cycles, 0u);
}

TEST(ProveTrace, LiveCrossCheckAgreesOnEveryArchitecture)
{
    for (CounterArch arch :
         {CounterArch::Scalar, CounterArch::AddWires,
          CounterArch::Distributed}) {
        LiveCheckOptions options;
        options.coreName = "boom-small";
        options.arch = arch;
        options.workload = "dhrystone";
        options.maxCycles = 50000;
        LintReport report;
        const LiveCheckStats stats =
            proveLiveCrossCheck(options, report);
        EXPECT_EQ(report.errorCount(), 0u)
            << counterArchName(arch) << "\n" << report.toJson();
        EXPECT_EQ(stats.eventsChecked, 4u);
        EXPECT_GT(stats.cycles, 0u);
    }
}

TEST(ProveTrace, LiveCrossCheckAgreesOnRocket)
{
    LiveCheckOptions options;
    options.coreName = "rocket";
    options.arch = CounterArch::Distributed;
    options.workload = "vvadd";
    options.maxCycles = 50000;
    LintReport report;
    const LiveCheckStats stats = proveLiveCrossCheck(options, report);
    EXPECT_EQ(report.errorCount(), 0u) << report.toJson();
    EXPECT_EQ(stats.eventsChecked, 4u);
}

#ifdef ICICLE_MUTANTS

TEST(ProveMutants, EverySeededBugIsCaughtByItsRegisteredRule)
{
    ASSERT_TRUE(mutantsCompiledIn());
    const std::vector<MutantResult> results = runMutantSuite(16);
    ASSERT_GE(results.size(), 8u)
        << "the ISSUE requires a registry of >= 8 seeded bugs";
    for (const MutantResult &result : results) {
        EXPECT_TRUE(result.caught)
            << result.info.name << " escaped the checker";
        EXPECT_TRUE(result.expectedRuleHit)
            << result.info.name << " was not flagged by "
            << result.info.expectedRule << "; witness: "
            << result.firstFinding;
    }
}

/**
 * What a CsrFile-driven run on BOOM-large reports for `arch`, on
 * towers and coremark over 300k cycles. Under AddWires and
 * Distributed that is PerfHarness's values of the paper's top- and
 * second-level events, and the raw registers its counters end with
 * (what in-band software reads). Scalar PerfHarness counters watch
 * one lane each, so under Scalar the run instead reads counters whose
 * selectors map several sources onto one register.
 */
std::vector<u64>
countedRunValues(CounterArch arch)
{
    std::vector<u64> values;
    for (const char *workload : {"towers", "coremark"}) {
        BoomConfig cfg = BoomConfig::large();
        cfg.counterArch = arch;
        BoomCore core(cfg, buildWorkload(workload));
        if (arch == CounterArch::Scalar) {
            CsrFile &csrs = core.csrFile();
            csrs.program(0, {EventId::FetchBubbles});
            csrs.program(1, {EventId::ICacheBlocked, EventId::Recovering});
            csrs.setInhibit(false);
            core.run(300000);
            values.push_back(csrs.hpmValue(0));
            values.push_back(csrs.hpmValue(1));
            continue;
        }
        PerfHarness harness(core);
        harness.addTmaEvents(/*level3=*/false);
        harness.run(300000);
        for (u32 e = 0; e < kNumEvents; e++)
            values.push_back(harness.value(static_cast<EventId>(e)));
        for (u32 i = 0; i < harness.countersUsed(); i++)
            values.push_back(core.csrFile().hpmValue(i));
    }
    return values;
}

TEST(ProveMutants, CounterMutantsReachTheRunningCounters)
{
    // The counter mutants are seeded in the machines that CsrFile
    // holds, so each must change at least one value a counted run
    // reports, not only what the prover sees.
    const std::pair<CounterMutant, CounterArch> probes[] = {
        {CounterMutant::WrapOffByOne, CounterArch::Distributed},
        {CounterMutant::ArbiterDoubleAdvance, CounterArch::Distributed},
        {CounterMutant::DrainSkipsSourceZero, CounterArch::Distributed},
        {CounterMutant::SaturatingLocalAdd, CounterArch::Distributed},
        {CounterMutant::StickyOverflowDrain, CounterArch::Distributed},
        {CounterMutant::ResidueDropsLatch, CounterArch::Distributed},
        {CounterMutant::AddWiresOrSemantics, CounterArch::AddWires},
        {CounterMutant::ScalarLaneSkip, CounterArch::Scalar},
    };
    std::map<CounterArch, std::vector<u64>> clean;
    for (const auto &[mutant, arch] : probes) {
        if (!clean.count(arch))
            clean[arch] = countedRunValues(arch);
        ScopedMutant activate(mutant);
        EXPECT_NE(countedRunValues(arch), clean[arch])
            << mutantInfo(mutant).name
            << " left every counted value unchanged";
    }
}

TEST(ProveMutants, InactiveMutantsLeaveTheMatrixClean)
{
    // Compiling the mutants in must not change behaviour while none
    // is active: the clean matrix still proves.
    ASSERT_EQ(activeMutant(), CounterMutant::None);
    const std::vector<ProveRun> runs = proveArchMatrix(16);
    for (const ProveRun &run : runs)
        EXPECT_EQ(run.report.errorCount(), 0u) << run.name;
}

#else

TEST(ProveMutants, ActivationRequiresMutantBuild)
{
    EXPECT_FALSE(mutantsCompiledIn());
    EXPECT_THROW(setActiveMutant(CounterMutant::WrapOffByOne),
                 FatalError);
}

#endif

} // namespace
} // namespace icicle
