/**
 * @file
 * Tests for the icicle-lint static model-invariant analyzer: one
 * seeded violation per rule family (wiring, CSR, counter bounds, TMA
 * conservation), clean-config checks over every shipped core size,
 * and property-style fuzzing that confirms every Error the linter
 * reports corresponds to a real runtime violation.
 */

#include <gtest/gtest.h>

#include <limits>

#include "analysis/interval.hh"
#include "analysis/lint.hh"
#include "core/dispatch.hh"
#include "core/session.hh"
#include "isa/builder.hh"
#include "perf/harness.hh"
#include "pmu/counters.hh"

using namespace icicle;

namespace
{

Program
stubProgram()
{
    ProgramBuilder b("stub");
    b.halt();
    return b.build();
}

/**
 * A minimal Core whose event-bus geometry, widths, and CSR file the
 * tests can corrupt at will — the real cores always wire themselves
 * consistently, so seeded wiring violations need a puppet.
 */
class PuppetCore : public Core
{
  public:
    PuppetCore(CoreKind kind, u32 core_width, u32 issue_width,
               CounterArch arch, const Program &program)
        : puppetKind(kind), widthC(core_width), widthI(issue_width),
          exec(program), csrFileImpl(kind, arch, &events)
    {
        if (kind == CoreKind::Boom) {
            events.setNumSources(EventId::UopsIssued, issue_width);
            events.setNumSources(EventId::FetchBubbles, core_width);
            events.setNumSources(EventId::UopsRetired, core_width);
            events.setNumSources(EventId::InstRetired, core_width);
            events.setNumSources(EventId::DCacheBlocked, core_width);
            events.setNumSources(EventId::DCacheBlockedDram,
                                 core_width);
        }
    }

    bool done() const override { return true; }
    u64
    run(u64, const std::function<void(Cycle, const EventBus &)> &)
        override
    {
        return 0;
    }
    Cycle cycle() const override { return 0; }
    const EventBus &bus() const override { return events; }
    CsrFile &csrFile() override { return csrFileImpl; }
    Executor &executor() override { return exec; }
    CoreKind kind() const override { return puppetKind; }
    u32 coreWidth() const override { return widthC; }
    u32 issueWidth() const override { return widthI; }
    const char *name() const override { return "Puppet"; }
    u64 total(EventId) const override { return 0; }
    u64 laneTotal(EventId, u32) const override { return 0; }

    EventBus events;

  private:
    CoreKind puppetKind;
    u32 widthC;
    u32 widthI;
    Executor exec;
    CsrFile csrFileImpl;
};

/** Deterministic PRNG for the fuzz tests. */
struct Rng64
{
    u64 state;
    explicit Rng64(u64 seed) : state(seed) {}
    u64
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 16;
    }
};

} // namespace

// ===================================================== clean configs

TEST(Lint, AllShippedConfigsAreClean)
{
    const Program program = stubProgram();
    std::vector<std::unique_ptr<Core>> cores;
    cores.push_back(makeRocket(RocketConfig{}, program));
    for (const BoomConfig &size : BoomConfig::allSizes())
        cores.push_back(makeBoom(size, program));

    for (const auto &core : cores) {
        const LintReport report = lintCore(*core);
        EXPECT_EQ(report.errorCount(), 0u) << core->name() << ":\n"
                                           << report.format();
        // The Table II fidelity note is always present.
        EXPECT_TRUE(report.hasRule("TMA-005"));
    }
}

TEST(Lint, AllCounterArchitecturesAreClean)
{
    const Program program = stubProgram();
    for (CounterArch arch : {CounterArch::Scalar, CounterArch::AddWires,
                             CounterArch::Distributed}) {
        RocketConfig rocket;
        rocket.counterArch = arch;
        EXPECT_EQ(lintCore(*makeRocket(rocket, program)).errorCount(),
                  0u);
        BoomConfig boom = BoomConfig::giga();
        boom.counterArch = arch;
        EXPECT_EQ(lintCore(*makeBoom(boom, program)).errorCount(), 0u);
    }
}

// ============================================= family 1: EVT wiring

TEST(LintWiring, DetectsSourceCountMismatch)
{
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Boom, 3, 4, CounterArch::AddWires,
                    program);
    // Seed: decode lanes say W_C = 3 but the bus wires only 2
    // fetch-bubble sources.
    core.events.setNumSources(EventId::FetchBubbles, 2);
    const LintReport report = lintEventWiring(core);
    EXPECT_TRUE(report.hasRule("EVT-002")) << report.format();
    EXPECT_GT(report.errorCount(), 0u);
}

TEST(LintWiring, DetectsDoubleDrivenConditionEvent)
{
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Rocket, 1, 1, CounterArch::Scalar,
                    program);
    // Seed: a per-cycle condition (icache-blocked) driven by two
    // wires would count the same stall twice.
    core.events.setNumSources(EventId::ICacheBlocked, 2);
    const LintReport report = lintEventWiring(core);
    EXPECT_TRUE(report.hasRule("EVT-005")) << report.format();
    EXPECT_GT(report.errorCount(), 0u);
}

TEST(LintWiring, DetectsIllegalSourceCount)
{
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Rocket, 1, 1, CounterArch::Scalar,
                    program);
    core.events.setNumSources(EventId::Cycles, 0);
    EXPECT_TRUE(lintEventWiring(core).hasRule("EVT-001"));
    core.events.setNumSources(EventId::Cycles, kMaxSources + 1);
    EXPECT_TRUE(lintEventWiring(core).hasRule("EVT-001"));
}

TEST(LintWiring, CleanPuppetHasNoFindings)
{
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Boom, 3, 4, CounterArch::AddWires,
                    program);
    EXPECT_EQ(lintEventWiring(core).errorCount(), 0u);
}

// ============================================= family 2: CSR config

TEST(LintCsr, DetectsBadEventSetId)
{
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Rocket, 1, 1, CounterArch::Scalar,
                    program);
    const u64 selector = csr::selector(static_cast<EventSetId>(9),
                                       0x1, 0);
    const LintReport report =
        lintSelector(CoreKind::Rocket, core.bus(), 0, selector);
    EXPECT_TRUE(report.hasRule("CSR-001")) << report.format();
    EXPECT_GT(report.errorCount(), 0u);
}

TEST(LintCsr, DetectsMaskBeyondSetPopulation)
{
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Rocket, 1, 1, CounterArch::Scalar,
                    program);
    // Basic set on Rocket has far fewer than 40 events.
    const u64 selector =
        csr::selector(EventSetId::Basic, 1ull << 40, 0);
    const LintReport report =
        lintSelector(CoreKind::Rocket, core.bus(), 0, selector);
    EXPECT_TRUE(report.hasRule("CSR-002")) << report.format();
    EXPECT_GT(report.errorCount(), 0u);
}

TEST(LintCsr, DetectsLaneSelectOutOfRange)
{
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Boom, 3, 4, CounterArch::Scalar,
                    program);
    const int bit = maskBitOf(CoreKind::Boom, EventId::FetchBubbles);
    ASSERT_GE(bit, 0);
    // FetchBubbles has 3 sources; lane 7 does not exist.
    const u64 selector =
        csr::selector(EventSetId::Tma, 1ull << bit, 8);
    const LintReport report =
        lintSelector(CoreKind::Boom, core.bus(), 4, selector);
    EXPECT_TRUE(report.hasRule("CSR-003")) << report.format();
    EXPECT_GT(report.errorCount(), 0u);
}

TEST(LintCsr, DetectsEventMappedToTwoCounters)
{
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Rocket, 1, 1, CounterArch::Scalar,
                    program);
    CsrFile &csrs = core.csrFile();
    csrs.programEvent(0, EventId::BranchMispredict);
    csrs.programEvent(5, EventId::BranchMispredict);
    const LintReport report = lintCsrFile(core.csrs(), core.bus());
    EXPECT_TRUE(report.hasRule("CSR-004")) << report.format();
    EXPECT_GT(report.errorCount(), 0u);
}

TEST(LintCsr, DisjointLanesAreNotDuplicates)
{
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Boom, 3, 4, CounterArch::Scalar,
                    program);
    CsrFile &csrs = core.csrFile();
    csrs.program(0, {EventId::FetchBubbles}, 1); // lane 0
    csrs.program(1, {EventId::FetchBubbles}, 2); // lane 1
    const LintReport report = lintCsrFile(core.csrs(), core.bus());
    EXPECT_FALSE(report.hasRule("CSR-004")) << report.format();
}

TEST(LintCsr, WarnsOnReservedTlbEvent)
{
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Rocket, 1, 1, CounterArch::Scalar,
                    program);
    core.csrFile().programEvent(0, EventId::DTlbMiss);
    const LintReport report = lintCsrFile(core.csrs(), core.bus());
    EXPECT_TRUE(report.hasRule("EVT-004")) << report.format();
    EXPECT_EQ(report.errorCount(), 0u); // a warning, not an error
}

TEST(LintCsr, WarnsOnIncoherentInhibitState)
{
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Rocket, 1, 1, CounterArch::Scalar,
                    program);
    CsrFile &csrs = core.csrFile();
    csrs.programEvent(0, EventId::BranchMispredict);
    csrs.programEvent(1, EventId::Flush);
    // Enable counter 0 and mcycle... but leave counter 1 inhibited.
    csrs.writeCsr(csr::mcountinhibit, ~0ull & ~(1ull << 3) & ~1ull);
    const LintReport report = lintCsrFile(core.csrs(), core.bus());
    EXPECT_TRUE(report.hasRule("CSR-005")) << report.format();
}

// ====================================== family 3: counter bounds

TEST(LintCounter, DetectsLossyDistributedWidth)
{
    // 4 sources with 1-bit local counters: 2^1 < 4, overflow latches
    // saturate under a burst and events are lost.
    const LintReport report = lintDistributedBounds(4, 1, "seeded");
    EXPECT_TRUE(report.hasRule("CNT-002")) << report.format();
    EXPECT_GT(report.errorCount(), 0u);
}

TEST(LintCounter, PaperSizingIsClean)
{
    // width = ceil(log2(sources)) is the paper's sizing; never lossy.
    for (u32 sources = 1; sources <= kMaxSources; sources++) {
        u32 width = 1;
        while ((1u << width) < sources)
            width++;
        EXPECT_EQ(lintDistributedBounds(sources, width, "paper")
                      .errorCount(),
                  0u)
            << sources << " sources";
    }
}

TEST(LintCounter, WarnsOnLargeUndercountBound)
{
    // 8 x 2^8 = 2048 events of worst-case undercount > 1024.
    const LintReport report = lintDistributedBounds(8, 8, "seeded");
    EXPECT_TRUE(report.hasRule("CNT-003")) << report.format();
}

TEST(LintCounter, WarnsOnLongAddWiresChain)
{
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Boom, 12, 12, CounterArch::AddWires,
                    program);
    // A 12-lane chain of 11 adders is over the budget of 8.
    const LintReport report = lintCounterArch(core);
    EXPECT_TRUE(report.hasRule("CNT-004")) << report.format();
}

TEST(LintCounter, ReportsMultiplexingForOversizedRequest)
{
    const Program program = stubProgram();
    // Per-lane Scalar TMA request on GigaBOOM with the level-3
    // extension exceeds 29 counters -> Info, not Error.
    BoomConfig config = BoomConfig::giga();
    config.counterArch = CounterArch::Scalar;
    auto scalar_core = makeBoom(config, program);

    std::vector<EventId> request = {
        EventId::UopsRetired,     EventId::UopsIssued,
        EventId::FetchBubbles,    EventId::Recovering,
        EventId::BranchMispredict, EventId::Flush,
        EventId::FenceRetired,    EventId::ICacheBlocked,
        EventId::DCacheBlocked,   EventId::DCacheBlockedDram};
    const LintReport report = lintPerfRequest(*scalar_core, request);
    EXPECT_EQ(report.errorCount(), 0u) << report.format();
    EXPECT_TRUE(report.hasRule("CNT-001")) << report.format();

    PerfHarness harness(*scalar_core);
    harness.addTmaEvents(true);
    const u64 cycles = harness.run(20000);
    EXPECT_GT(cycles, 0u);
    EXPECT_GT(harness.numGroups(), 1u);
}

TEST(LintCounter, RejectsDuplicateRequest)
{
    const Program program = stubProgram();
    auto core = makeRocket(RocketConfig{}, program);
    const std::vector<EventId> request = {EventId::BranchMispredict,
                                          EventId::BranchMispredict};
    const LintReport report = lintPerfRequest(*core, request);
    EXPECT_TRUE(report.hasRule("CSR-004")) << report.format();
    EXPECT_GT(report.errorCount(), 0u);
}

TEST(LintCounter, RejectsUnsupportedEventRequest)
{
    const Program program = stubProgram();
    auto core = makeRocket(RocketConfig{}, program);
    // uops-issued exists only on BOOM.
    const LintReport report =
        lintPerfRequest(*core, {EventId::UopsIssued});
    EXPECT_TRUE(report.hasRule("EVT-003"));
    EXPECT_GT(report.errorCount(), 0u);
}

// ====================================== family 4: TMA conservation

TEST(LintTma, ReferenceModelConservesForAllWidths)
{
    for (bool literal : {false, true}) {
        for (u32 width : {1u, 2u, 3u, 4u, 5u, 9u}) {
            TmaParams params;
            params.coreWidth = width;
            params.paperLiteralNfr = literal;
            const LintReport report = lintTmaModel(params);
            EXPECT_EQ(report.errorCount(), 0u)
                << "W_C=" << width << " literal=" << literal << ":\n"
                << report.format();
        }
    }
}

TEST(LintTma, DetectsBrokenNormalization)
{
    TmaParams params;
    params.coreWidth = 2;
    // Seed: a model that "forgets" backend entirely — the top level
    // no longer sums to one.
    const TmaModelFn broken = [](const TmaCounters &c,
                                 const TmaParams &p) {
        TmaResult r = computeTma(c, p);
        r.backend = 0;
        r.coreBound = 0;
        r.memBound = 0;
        r.memBoundL2 = 0;
        r.memBoundDram = 0;
        return r;
    };
    const LintReport report = lintTmaModel(params, broken);
    EXPECT_TRUE(report.hasRule("TMA-001")) << report.format();
    EXPECT_GT(report.errorCount(), 0u);
}

TEST(LintTma, DetectsNegativeClass)
{
    TmaParams params;
    params.coreWidth = 1;
    // Seed: unclamped subtraction can push a class negative.
    const TmaModelFn broken = [](const TmaCounters &c,
                                 const TmaParams &p) {
        TmaResult r = computeTma(c, p);
        r.coreBound = r.backend - 2.0; // may go negative
        return r;
    };
    const LintReport report = lintTmaModel(params, broken);
    EXPECT_TRUE(report.hasRule("TMA-003")) << report.format();
}

TEST(LintTma, DetectsChildParentMismatch)
{
    TmaParams params;
    params.coreWidth = 2;
    // Seed: frontend children that do not partition the parent.
    const TmaModelFn broken = [](const TmaCounters &c,
                                 const TmaParams &p) {
        TmaResult r = computeTma(c, p);
        r.pcResteer = r.frontend; // fetchLatency + pcResteer > parent
        return r;
    };
    const LintReport report = lintTmaModel(params, broken);
    EXPECT_TRUE(report.hasRule("TMA-002")) << report.format();
}

TEST(LintTma, DetectsMispredictsAboveTheirChildren)
{
    TmaParams params;
    params.coreWidth = 2;
    // Seed: a Branch Mispredicts class larger than resteers plus
    // recovery bubbles, the clamped sum it is built from.
    const TmaModelFn broken = [](const TmaCounters &c,
                                 const TmaParams &p) {
        TmaResult r = computeTma(c, p);
        r.branchMispredicts = r.resteers + r.recoveryBubbles + 0.05;
        return r;
    };
    const LintReport report = lintTmaModel(params, broken);
    EXPECT_TRUE(report.hasRule("TMA-004")) << report.format();
}

TEST(LintTma, DetectsNaNClass)
{
    TmaParams params;
    params.coreWidth = 3;
    // Seed: a 0/0 that escapes the guarded division.
    const TmaModelFn broken = [](const TmaCounters &c,
                                 const TmaParams &p) {
        TmaResult r = computeTma(c, p);
        r.memBoundDram = std::numeric_limits<double>::quiet_NaN();
        return r;
    };
    const LintReport report = lintTmaModel(params, broken);
    EXPECT_TRUE(report.hasRule("TMA-003")) << report.format();
}

TEST(LintTma, MissingRequiredIdentityIsAnError)
{
    TmaParams params;
    params.coreWidth = 2;
    const std::vector<TmaConstraint> r4 = deriveTmaConstraints(params);
    EXPECT_EQ(lintTmaCoverage(r4).errorCount(), 0u);

    // A formula edit that stops the DAG yielding an identity must
    // show up under the identity's rule, not shrink the check.
    const std::pair<const char *, const char *> required[] = {
        {"R4.sum.top", "TMA-001"},
        {"R4.split.frontend", "TMA-002"},
        {"R4.split.backend", "TMA-002"},
        {"R4.split.mem-bound", "TMA-002"},
        {"R4.mono.resteers", "TMA-004"},
        {"R4.mono.recovery-bubbles", "TMA-004"},
        {"R4.subadd.branch-mispredicts", "TMA-004"},
    };
    for (const auto &[id, rule] : required) {
        std::vector<TmaConstraint> missing;
        for (const TmaConstraint &c : r4) {
            if (c.id != id)
                missing.push_back(c);
        }
        ASSERT_EQ(missing.size(), r4.size() - 1) << id;
        const LintReport report = lintTmaCoverage(missing);
        EXPECT_EQ(report.errorCount(), 1u) << id << report.format();
        EXPECT_TRUE(report.hasRule(rule)) << id << report.format();
    }
}

TEST(LintTma, ReportsZeroWidthParams)
{
    TmaParams params;
    params.coreWidth = 0;
    EXPECT_GT(lintTmaModel(params).errorCount(), 0u);
}

TEST(LintTma, AlwaysRecordsTableTwoDiscrepancyNote)
{
    TmaParams params;
    params.coreWidth = 3;
    const LintReport report = lintTmaModel(params);
    const auto notes = report.byRule("TMA-005");
    ASSERT_EQ(notes.size(), 1u);
    EXPECT_EQ(notes[0].severity, Severity::Info);
}

// ============================================ enforcement gating

TEST(LintGate, EnforcementThrowsOnError)
{
    LintReport report;
    report.add("EVT-002", Severity::Error, "seeded");
    ASSERT_TRUE(lintOnConstruct());
    EXPECT_THROW(enforceLint(report, "test"), FatalError);
}

TEST(LintGate, ScopedDisableSuppressesEnforcement)
{
    LintReport report;
    report.add("EVT-002", Severity::Error, "seeded");
    {
        ScopedLintDisable no_gate;
        EXPECT_NO_THROW(enforceLint(report, "test"));
    }
    EXPECT_TRUE(lintOnConstruct());
    EXPECT_THROW(enforceLint(report, "test"), FatalError);
}

TEST(LintGate, HarnessFailsFastOnDuplicateRequest)
{
    const Program program = stubProgram();
    auto core = makeRocket(RocketConfig{}, program);
    PerfHarness harness(*core);
    harness.addEvent(EventId::DTlbMiss); // reserved: warns, allowed
    harness.addEvent(EventId::DTlbMiss); // dedup'd by addEvent
    EXPECT_NO_THROW(harness.run(100));
}

TEST(CoreDispatch, UnknownCoreModelIsFatal)
{
    // runCoreLoop has one dispatch path, into the two shipped models:
    // a test double that reaches it fails loudly instead of falling
    // back to a type-erased per-cycle hook.
    PuppetCore core(CoreKind::Rocket, 1, 1, CounterArch::Scalar,
                    stubProgram());
    EXPECT_THROW(runCoreLoop(core, 10, [](Cycle, const EventBus &) {}),
                 FatalError);
}

// ============================================ diagnostics engine

TEST(Diagnostics, JsonIsWellFormedAndEscaped)
{
    LintReport report;
    report.add("CSR-002", Severity::Error, "mask \"bit\" 40\nbad",
               "mhpmevent7");
    report.add("TMA-005", Severity::Info, "note");
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"errors\":1"), std::string::npos) << json;
    EXPECT_NE(json.find("\\\"bit\\\""), std::string::npos) << json;
    EXPECT_NE(json.find("\\n"), std::string::npos) << json;
    EXPECT_EQ(json.find('\n'), std::string::npos) << json;
}

TEST(Diagnostics, CountsAndMergeWork)
{
    LintReport a;
    a.add("EVT-001", Severity::Error, "x");
    a.add("CNT-003", Severity::Warn, "y");
    LintReport b;
    b.add("TMA-005", Severity::Info, "z");
    a.merge(b);
    EXPECT_EQ(a.diagnostics().size(), 3u);
    EXPECT_EQ(a.errorCount(), 1u);
    EXPECT_EQ(a.count(Severity::Warn), 1u);
    EXPECT_EQ(a.count(Severity::Info), 1u);
    EXPECT_TRUE(a.hasRule("TMA-005"));
    EXPECT_FALSE(a.hasRule("TMA-001"));
}

// ============================================ interval arithmetic

TEST(Interval, ArithmeticIsConservative)
{
    const Interval a(-1, 2), b(3, 4);
    EXPECT_EQ((a + b).lo, 2);
    EXPECT_EQ((a + b).hi, 6);
    EXPECT_EQ((a - b).lo, -5);
    EXPECT_EQ((a - b).hi, -1);
    EXPECT_EQ((a * b).lo, -4);
    EXPECT_EQ((a * b).hi, 8);
    EXPECT_EQ((a / b).lo, -1.0 / 3.0);
    EXPECT_EQ((a / b).hi, 2.0 / 3.0);
    EXPECT_EQ(intervalClamp01(a).lo, 0);
    EXPECT_EQ(intervalClamp01(a).hi, 1);
}

TEST(Interval, SaturatingU64OpsAtHpmBoundaries)
{
    // The derivation engine computes per-run capacities like
    // `sources * horizon` against the 48-bit mhpmcounter width; every
    // op must clamp, never wrap, exactly at the boundaries.
    const u64 hpm = 1ull << 48;

    EXPECT_EQ(satAddU64(hpm - 1, 1), hpm);
    EXPECT_EQ(satAddU64(kU64Max - 1, 1), kU64Max);
    EXPECT_EQ(satAddU64(kU64Max, 1), kU64Max);
    EXPECT_EQ(satAddU64(kU64Max, kU64Max), kU64Max);

    // 16 sources (kMaxSources) saturating a full 48-bit counter is
    // still representable; squaring the counter capacity is not.
    EXPECT_EQ(satMulU64(hpm - 1, 16), (hpm - 1) * 16);
    EXPECT_EQ(satMulU64(hpm, hpm), kU64Max);
    EXPECT_EQ(satMulU64(1ull << 32, 1ull << 31), 1ull << 63);
    EXPECT_EQ(satMulU64(1ull << 32, 1ull << 32), kU64Max);
    EXPECT_EQ(satMulU64(0, kU64Max), 0u);
    EXPECT_EQ(satMulU64(kU64Max, 1), kU64Max);
}

// ================= property fuzz: lint errors are real violations

TEST(LintFuzz, DistributedErrorsMatchRuntimeEventLoss)
{
    // For every (sources, width) configuration: drive an adversarial
    // all-lanes-every-cycle burst long enough to saturate the one-hot
    // arbiter. The linter must report CNT-002 exactly when the
    // hardware actually loses events (corrected() falls short of the
    // exact count).
    for (u32 sources = 2; sources <= kMaxSources; sources++) {
        EventBus bus;
        bus.setNumSources(EventId::UopsIssued, sources);
        for (u32 width = 1; width <= 5; width++) {
            const bool lint_error =
                lintDistributedBounds(sources, width, "fuzz")
                    .hasErrors();

            DistributedMachine counter(sources, width);
            const u64 cycles = 4096;
            for (u64 cycle = 0; cycle < cycles; cycle++) {
                bus.clear();
                bus.raiseLanes(EventId::UopsIssued, sources);
                counter.step(bus.mask(EventId::UopsIssued));
            }
            const u64 exact = cycles * sources;
            const bool lost_events = counter.corrected() < exact;
            EXPECT_EQ(lint_error, lost_events)
                << sources << " sources, width " << width
                << ": corrected=" << counter.corrected()
                << " exact=" << exact;
        }
    }
}

TEST(LintFuzz, SelectorErrorsMatchDeadOrMiscountingCounters)
{
    // Fuzz raw selector values. Whenever the linter reports an Error
    // the programmed counter must misbehave at runtime (count nothing
    // although events fire); whenever the linter is silent the
    // counter must count.
    const Program program = stubProgram();
    PuppetCore core(CoreKind::Rocket, 1, 1, CounterArch::Scalar,
                    program);
    CsrFile &csrs = core.csrFile();
    Rng64 rng(0xf22);

    u32 seeded_errors = 0, seeded_clean = 0;
    for (u32 trial = 0; trial < 400; trial++) {
        // Bias the fuzz toward interesting fields.
        const u64 set_id = rng.next() % 8;       // half out of range
        const u64 mask = 1ull << (rng.next() % 12);
        const u64 lane = rng.next() % 3 ? 0 : 2; // sometimes invalid
        const u64 selector = set_id | (mask << 8) | (lane << 56);

        const LintReport report =
            lintSelector(CoreKind::Rocket, core.bus(), 0, selector);

        csrs.writeCsr(csr::mhpmevent3, selector);
        csrs.writeCsr(csr::mhpmcounter3, 0);
        csrs.setInhibit(false);
        // Fire every Rocket event on all lanes for a few cycles.
        for (u32 cycle = 0; cycle < 8; cycle++) {
            core.events.clear();
            for (u32 e = 0; e < kNumEvents; e++)
                core.events.raise(static_cast<EventId>(e), 0);
            csrs.tick(core.events);
        }
        csrs.setInhibit(true);
        const u64 counted = csrs.hpmCorrected(0);

        if (report.hasErrors()) {
            EXPECT_EQ(counted, 0u)
                << "selector " << std::hex << selector
                << " flagged Error but counted";
            seeded_errors++;
        } else {
            EXPECT_GT(counted, 0u)
                << "selector " << std::hex << selector
                << " lint-clean but counter stayed dead";
            seeded_clean++;
        }
    }
    // The fuzz must exercise both sides to be meaningful.
    EXPECT_GT(seeded_errors, 20u);
    EXPECT_GT(seeded_clean, 20u);
}

TEST(LintFuzz, WiringErrorsMatchHarnessMiscounts)
{
    // A per-slot event whose bus geometry disagrees with the core
    // width is exactly the case where CSR-programmed counting and the
    // geometry-derived expectation diverge; the linter must flag it.
    const Program program = stubProgram();
    Rng64 rng(42);
    for (u32 trial = 0; trial < 64; trial++) {
        const u32 core_width = 1 + rng.next() % 4;
        const u32 declared = 1 + rng.next() % 6;
        PuppetCore core(CoreKind::Boom, core_width, core_width + 1,
                        CounterArch::AddWires, program);
        core.events.setNumSources(EventId::UopsRetired, declared);
        const bool flagged = lintEventWiring(core).hasErrors();
        EXPECT_EQ(flagged, declared != core_width)
            << "W_C=" << core_width << " declared=" << declared;
    }
}
