/**
 * @file
 * Tests for icicle-refute's static half (constraint derivation, REF
 * satisfiability lint) and runtime half (litmus suite + PROVE-R
 * refutation checker): the derived set is deterministic and
 * substantive with full provenance, every litmus program self-checks
 * clean on both cores, measured deltas never refute an unmutated
 * build, and seeded wiring violations trip the REF rules at lint
 * time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>

#include "analysis/constraints.hh"
#include "analysis/lint.hh"
#include "common/logging.hh"
#include "core/session.hh"
#include "isa/builder.hh"
#include "prove/refute.hh"
#include "sweep/sweep.hh"
#include "workloads/litmus.hh"

namespace icicle
{
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
 * Minimal Core with corruptible event-bus geometry, for seeding the
 * REF satisfiability violations real cores never exhibit.
 */
class PuppetCore : public Core
{
  public:
    PuppetCore(CoreKind kind, u32 core_width, const Program &program)
        : puppetKind(kind), widthC(core_width), exec(program),
          csrFileImpl(kind, CounterArch::AddWires, &events)
    {
        if (kind == CoreKind::Boom) {
            events.setNumSources(EventId::UopsIssued, core_width);
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
    u32 issueWidth() const override { return widthC; }
    const char *name() const override { return "Puppet"; }
    u64 total(EventId) const override { return 0; }
    u64 laneTotal(EventId, u32) const override { return 0; }

    EventBus events;

  private:
    CoreKind puppetKind;
    u32 widthC;
    Executor exec;
    CsrFile csrFileImpl;
};

} // namespace

// ======================================================= derivation

TEST(Constraints, DerivationIsSubstantiveOnEveryShippedConfig)
{
    const Program program = stubProgram();
    for (const std::string &name : sweepCoreNames()) {
        const std::unique_ptr<Core> core =
            makeSweepCore(name, CounterArch::AddWires, program);
        const ConstraintSet set = deriveConstraints(*core);

        // The acceptance floor: a substantive, typed ruleset.
        EXPECT_GE(set.size(), 15u) << name;
        EXPECT_FALSE(set.linear.empty()) << name;
        EXPECT_FALSE(set.tma.empty()) << name;

        // Every constraint is introspectable: id, rule family, text,
        // and a non-empty derivation chain.
        std::set<std::string> ids;
        for (const LinearConstraint &c : set.linear) {
            EXPECT_FALSE(c.id.empty()) << name;
            EXPECT_TRUE(std::string(c.rule).rfind("PROVE-R", 0) == 0)
                << name << "/" << c.id;
            EXPECT_FALSE(c.text.empty()) << name << "/" << c.id;
            EXPECT_FALSE(c.provenance.empty()) << name << "/" << c.id;
            EXPECT_TRUE(ids.insert(c.id).second)
                << "duplicate id " << c.id << " on " << name;
        }
        for (const TmaConstraint &c : set.tma) {
            EXPECT_FALSE(c.id.empty()) << name;
            EXPECT_STREQ(c.rule, "PROVE-R4") << name << "/" << c.id;
            EXPECT_FALSE(c.text.empty()) << name << "/" << c.id;
            EXPECT_FALSE(c.provenance.empty()) << name << "/" << c.id;
            EXPECT_TRUE(ids.insert(c.id).second)
                << "duplicate id " << c.id << " on " << name;
        }
    }
}

TEST(Constraints, DerivationIsDeterministic)
{
    const Program program = stubProgram();
    for (const char *name : {"rocket", "boom-large"}) {
        const std::unique_ptr<Core> a =
            makeSweepCore(name, CounterArch::AddWires, program);
        const std::unique_ptr<Core> b =
            makeSweepCore(name, CounterArch::Distributed, program);
        // Same configuration -> byte-identical listing and JSON, even
        // across separately constructed cores and counter arches.
        EXPECT_EQ(deriveConstraints(*a).format(),
                  deriveConstraints(*b).format());
        EXPECT_EQ(deriveConstraints(*a).toJson(),
                  deriveConstraints(*b).toJson());
    }
}

TEST(Constraints, CoversEveryRuleFamilyOnBothCores)
{
    const Program program = stubProgram();
    for (const char *name : {"rocket", "boom-small"}) {
        const std::unique_ptr<Core> core =
            makeSweepCore(name, CounterArch::AddWires, program);
        const ConstraintSet set = deriveConstraints(*core);
        bool width = false, dom = false, part = false;
        for (const LinearConstraint &c : set.linear) {
            width |= c.kind == ConstraintKind::WidthBound;
            dom |= c.kind == ConstraintKind::Dominance;
            part |= c.kind == ConstraintKind::Partition;
        }
        EXPECT_TRUE(width) << name;
        EXPECT_TRUE(dom) << name;
        EXPECT_TRUE(part) << name;
        bool interval = false, sum_is_one = false;
        for (const TmaConstraint &c : set.tma) {
            interval |= c.op == TmaCheckOp::InInterval;
            sum_is_one |= c.op == TmaCheckOp::SumIsOne;
        }
        EXPECT_TRUE(interval) << name;
        EXPECT_TRUE(sum_is_one)
            << name << ": top-level conservation not derived";
    }
}

// ======================================================= evaluation

TEST(Constraints, LinearEvaluationMatchesHandComputation)
{
    std::array<u64, kNumEvents> deltas{};
    deltas[static_cast<u32>(EventId::Cycles)] = 100;
    deltas[static_cast<u32>(EventId::InstRetired)] = 40;
    deltas[static_cast<u32>(EventId::ArithRetired)] = 40;

    LinearConstraint width;
    width.op = ConstraintOp::GeZero;
    width.terms = {{EventId::Cycles, 1}, {EventId::InstRetired, -1}};
    EXPECT_EQ(evaluateLinear(width, deltas), 60);
    EXPECT_TRUE(satisfiesLinear(width, deltas));
    deltas[static_cast<u32>(EventId::InstRetired)] = 101;
    EXPECT_EQ(evaluateLinear(width, deltas), -1);
    EXPECT_FALSE(satisfiesLinear(width, deltas));

    LinearConstraint part;
    part.op = ConstraintOp::EqZero;
    part.terms = {{EventId::InstRetired, 1},
                  {EventId::ArithRetired, -1}};
    deltas[static_cast<u32>(EventId::InstRetired)] = 40;
    EXPECT_TRUE(satisfiesLinear(part, deltas));
    deltas[static_cast<u32>(EventId::InstRetired)] = 41;
    EXPECT_FALSE(satisfiesLinear(part, deltas));

    // An end-of-run-only GeZero with a constant: delta(cycles) >= 1.
    LinearConstraint progress;
    progress.terms = {{EventId::Cycles, 1}};
    progress.constant = -1;
    EXPECT_TRUE(satisfiesLinear(progress, deltas));
}

TEST(Constraints, TmaChecksDetectEachViolationShape)
{
    TmaResult r;
    r.retiring = 0.25;
    r.badSpeculation = 0.25;
    r.frontend = 0.25;
    r.backend = 0.25;
    r.fetchLatency = 0.2;
    r.pcResteer = 0.05;

    double excess = 0;

    TmaConstraint in;
    in.op = TmaCheckOp::InInterval;
    in.subject = TmaRoot::Retiring;
    in.bounds = Interval(0.0, 1.0);
    EXPECT_TRUE(satisfiesTma(in, r, &excess));
    in.bounds = Interval(0.5, 1.0);
    EXPECT_FALSE(satisfiesTma(in, r, &excess));
    EXPECT_NEAR(excess, 0.25, 1e-12);

    TmaConstraint split;
    split.op = TmaCheckOp::PartsSumToWhole;
    split.subject = TmaRoot::Frontend;
    split.parts = {TmaRoot::FetchLatency, TmaRoot::PcResteer};
    EXPECT_TRUE(satisfiesTma(split, r, &excess));
    r.pcResteer = 0.2;
    EXPECT_FALSE(satisfiesTma(split, r, &excess));
    EXPECT_NEAR(excess, 0.15, 1e-12);

    TmaConstraint dom;
    dom.op = TmaCheckOp::DominatedBy;
    dom.subject = TmaRoot::FetchLatency;
    dom.parts = {TmaRoot::Frontend};
    EXPECT_TRUE(satisfiesTma(dom, r, &excess));
    r.fetchLatency = 0.5;
    EXPECT_FALSE(satisfiesTma(dom, r, &excess));
    EXPECT_NEAR(excess, 0.25, 1e-12);

    TmaConstraint sum;
    sum.op = TmaCheckOp::SumIsOne;
    sum.parts = {TmaRoot::Retiring, TmaRoot::BadSpeculation,
                 TmaRoot::Frontend, TmaRoot::Backend};
    EXPECT_TRUE(satisfiesTma(sum, r, &excess));
    r.backend = 0.5;
    EXPECT_FALSE(satisfiesTma(sum, r, &excess));
    EXPECT_NEAR(excess, 0.25, 1e-12);
}

TEST(Constraints, NonFiniteBreakdownViolatesEveryTmaConstraint)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    TmaResult r;
    r.retiring = r.badSpeculation = r.frontend = r.backend = nan;
    r.machineClears = r.branchMispredicts = r.resteers = nan;
    r.recoveryBubbles = r.fetchLatency = r.pcResteer = nan;
    r.coreBound = r.memBound = r.memBoundL2 = r.memBoundDram = nan;
    r.ipc = nan;

    const Program program = stubProgram();
    for (const std::string &name : sweepCoreNames()) {
        const std::unique_ptr<Core> core =
            makeSweepCore(name, CounterArch::AddWires, program);
        for (const TmaConstraint &c : deriveConstraints(*core).tma) {
            double excess = 0;
            EXPECT_FALSE(satisfiesTma(c, r, &excess))
                << name << "/" << c.id;
            EXPECT_GT(excess, 0.0) << name << "/" << c.id;
        }
    }
}

TEST(Constraints, TmaSetIsDerivedFromTheParams)
{
    // The core's R4 set is the params' set; only ipc's lid comes from
    // the bus wiring instead of the domain.
    const Program program = stubProgram();
    for (const std::string &name : sweepCoreNames()) {
        const std::unique_ptr<Core> core =
            makeSweepCore(name, CounterArch::AddWires, program);
        const std::vector<TmaConstraint> from_core =
            deriveConstraints(*core).tma;
        const std::vector<TmaConstraint> from_params =
            deriveTmaConstraints(tmaParamsFor(*core));
        ASSERT_EQ(from_core.size(), from_params.size()) << name;
        for (u64 i = 0; i < from_core.size(); i++) {
            EXPECT_EQ(from_core[i].id, from_params[i].id) << name;
            EXPECT_EQ(from_core[i].bounds.lo, from_params[i].bounds.lo);
            EXPECT_EQ(from_core[i].bounds.hi, from_params[i].bounds.hi)
                << name << "/" << from_core[i].id;
        }
    }

    // Both M_nf_r DAGs yield the mispredict envelope, subadditivity
    // included: branch-mispredicts <= resteers + recovery-bubbles.
    for (bool literal : {false, true}) {
        TmaParams params;
        params.coreWidth = 3;
        params.paperLiteralNfr = literal;
        const std::vector<TmaConstraint> r4 =
            deriveTmaConstraints(params);
        const auto subadd =
            std::find_if(r4.begin(), r4.end(), [](const auto &c) {
                return c.id == "R4.subadd.branch-mispredicts";
            });
        ASSERT_NE(subadd, r4.end()) << literal;
        EXPECT_EQ(subadd->op, TmaCheckOp::DominatedBy);
        EXPECT_EQ(subadd->subject, TmaRoot::BranchMispredicts);
        EXPECT_EQ(subadd->parts,
                  (std::vector<TmaRoot>{TmaRoot::Resteers,
                                        TmaRoot::RecoveryBubbles}));

        TmaResult r;
        r.resteers = 0.25;
        r.recoveryBubbles = 0.5;
        r.branchMispredicts = 0.75;
        EXPECT_TRUE(satisfiesTma(*subadd, r));
        r.branchMispredicts = 0.8;
        EXPECT_FALSE(satisfiesTma(*subadd, r));
    }
}

// ========================================================= REF lint

TEST(ConstraintsLint, ShippedConfigsPassTheRefRules)
{
    const Program program = stubProgram();
    for (const std::string &name : sweepCoreNames()) {
        const std::unique_ptr<Core> core =
            makeSweepCore(name, CounterArch::AddWires, program);
        const LintReport report = lintCore(*core);
        for (const char *rule :
             {"REF-001", "REF-002", "REF-003", "REF-004"}) {
            EXPECT_TRUE(report.byRule(rule).empty())
                << name << " raised " << rule << ":\n"
                << report.format();
        }
    }
}

TEST(ConstraintsLint, ZeroSourceEventFailsRef002)
{
    PuppetCore core(CoreKind::Boom, 2, stubProgram());
    core.events.setNumSources(EventId::UopsIssued, 0);
    const LintReport report = lintConstraints(core);
    EXPECT_TRUE(report.hasRule("REF-002")) << report.format();
    EXPECT_GT(report.errorCount(), 0u);
}

TEST(ConstraintsLint, OverwideEventFailsRef002)
{
    PuppetCore core(CoreKind::Boom, 2, stubProgram());
    core.events.setNumSources(EventId::FetchBubbles,
                              kMaxSources + 1);
    const LintReport report = lintConstraints(core);
    EXPECT_TRUE(report.hasRule("REF-002")) << report.format();
}

TEST(ConstraintsLint, UndersizedPartitionFailsRef004)
{
    // A retire wire wider than its class wires combined can never
    // satisfy the conservation equality at saturation.
    PuppetCore core(CoreKind::Rocket, 1, stubProgram());
    core.events.setNumSources(EventId::InstRetired, 8);
    const LintReport report = lintConstraints(core);
    EXPECT_TRUE(report.hasRule("REF-004")) << report.format();
    EXPECT_GT(report.errorCount(), 0u);
}

TEST(ConstraintsLint, RunsAsPartOfLintCore)
{
    // The satisfiability audit is wired into the Session-construction
    // lint, so a statically-broken wiring fails fast.
    PuppetCore core(CoreKind::Rocket, 1, stubProgram());
    core.events.setNumSources(EventId::InstRetired, 8);
    EXPECT_TRUE(lintCore(core).hasRule("REF-004"));
}

// ============================================== litmus + refutation

TEST(Litmus, SuiteIsRegisteredAndBuildable)
{
    const std::vector<LitmusInfo> &suite = litmusSuite();
    ASSERT_GE(suite.size(), 6u);
    std::set<std::string> names;
    for (const LitmusInfo &info : suite) {
        EXPECT_TRUE(names.insert(info.name).second)
            << "duplicate litmus name " << info.name;
        EXPECT_FALSE(info.description.empty()) << info.name;
        EXPECT_FALSE(info.targets.empty()) << info.name;
        const Program program = info.build();
        EXPECT_FALSE(program.code.empty()) << info.name;
        EXPECT_EQ(program.name, info.name);
    }
    EXPECT_THROW(buildLitmus("no-such-litmus"), FatalError);
}

TEST(Litmus, EveryProgramSelfChecksOnBothCores)
{
    for (const LitmusInfo &info : litmusSuite()) {
        for (const char *core_name : {"rocket", "boom-small"}) {
            const std::unique_ptr<Core> core = makeSweepCore(
                core_name, CounterArch::AddWires, info.build());
            core->run(2'000'000);
            ASSERT_TRUE(core->done())
                << info.name << " did not halt on " << core_name;
            EXPECT_EQ(core->executor().exitCode(), 0u)
                << info.name << " failed its self-check on "
                << core_name;
        }
    }
}

TEST(Refute, UnmutatedBuildIsNeverRefuted)
{
    // The full campaign: both default cores x the whole litmus suite.
    const RefuteResult result = proveRefutation();
    EXPECT_EQ(result.report.errorCount(), 0u)
        << result.report.format();
    EXPECT_EQ(result.sets.size(), 2u);
    EXPECT_EQ(result.runs.size(), 2 * litmusSuite().size());
    for (const RefuteRun &run : result.runs) {
        EXPECT_TRUE(run.halted) << run.core << "/" << run.workload;
        EXPECT_GT(run.checked, 15u) << run.core << "/" << run.workload;
        EXPECT_EQ(run.violations, 0u)
            << run.core << "/" << run.workload;
    }
    // Clean reports still carry every PROVE-R family id (stable SARIF
    // rule table).
    for (const char *rule : {"PROVE-R0", "PROVE-R1", "PROVE-R2",
                             "PROVE-R3", "PROVE-R4"}) {
        EXPECT_TRUE(result.report.hasRule(rule)) << rule;
    }
}

TEST(Refute, SkipsEndOfRunConstraintsMidFlight)
{
    // A one-cycle budget leaves the pipeline full: the checker must
    // not refute drained-pipeline facts (and must flag the incomplete
    // run via PROVE-R0), but pointwise facts still hold.
    RefuteOptions options;
    options.cores = {"boom-small"};
    options.workloads = {"litmus-width-retire"};
    options.maxCycles = 1;
    const RefuteResult result = proveRefutation(options);
    ASSERT_EQ(result.runs.size(), 1u);
    EXPECT_FALSE(result.runs[0].halted);
    for (const Diagnostic &diag : result.report.diagnostics()) {
        if (diag.severity != Severity::Error)
            continue;
        EXPECT_EQ(diag.rule, "PROVE-R0") << diag.message;
    }
}

TEST(Refute, UnknownNamesAreFatal)
{
    RefuteOptions bad_core;
    bad_core.cores = {"no-such-core"};
    EXPECT_THROW(proveRefutation(bad_core), FatalError);

    RefuteOptions bad_litmus;
    bad_litmus.workloads = {"no-such-litmus"};
    EXPECT_THROW(proveRefutation(bad_litmus), FatalError);
}

} // namespace icicle
