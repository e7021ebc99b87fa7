/**
 * @file
 * Cross-module integration tests: the full stack working together —
 * assembler -> core -> harness + tracer simultaneously -> TMA (in and
 * out of band) -> trace file -> analyzer -> VLSI report — plus
 * invariant sweeps across all BOOM sizes, workloads, and counter
 * architectures, and the bottom-up baseline's §II-B behaviour.
 */

#include <cstdio>
#include <gtest/gtest.h>

#include "core/session.hh"
#include "isa/assembler.hh"
#include "perf/harness.hh"
#include "perf/tma_tool.hh"
#include "tma/bottomup.hh"
#include "trace/trace.hh"
#include "vlsi/vlsi.hh"
#include "workloads/workloads.hh"

namespace icicle
{
namespace
{

TEST(Integration, FullStackPipeline)
{
    // 1. Assemble a program from text.
    const Program program = assemble(R"(
        .data
    arr: .dword 9, 1, 8, 2, 7, 3, 6, 4
        .text
        la   s0, arr
        li   s1, 200
    pass:
        li   t0, 0          # bubble-sort pass
    inner:
        slli t1, t0, 3
        add  t1, t1, s0
        ld   t2, 0(t1)
        ld   t3, 8(t1)
        ble  t2, t3, ordered
        sd   t3, 0(t1)
        sd   t2, 8(t1)
    ordered:
        addi t0, t0, 1
        li   t4, 7
        blt  t0, t4, inner
        addi s1, s1, -1
        bnez s1, pass
        ld   t5, 0(s0)       # smallest element must be 1
        addi a0, t5, -1      # -> exit 0 when sorted
        ecall
    )");

    // 2. Run it with the perf harness and a tracer attached at once.
    BoomConfig cfg = BoomConfig::large();
    cfg.counterArch = CounterArch::Distributed;
    BoomCore core(cfg, program);
    PerfHarness harness(core);
    harness.addTmaEvents();
    const TraceSpec spec = TraceSpec::tmaBundle(core);
    Trace trace(spec);
    // Harness drives ticks; capture the bus after each one.
    while (!core.done()) {
        harness.run(1);
        trace.capture(core.bus());
    }
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.executor().exitCode(), 0u);

    // 3. In-band counters == out-of-band totals == trace counts.
    EXPECT_EQ(harness.value(EventId::UopsRetired),
              core.total(EventId::UopsRetired));
    EXPECT_EQ(trace.countAllLanes(EventId::UopsRetired),
              core.total(EventId::UopsRetired));
    EXPECT_EQ(trace.numCycles(), core.cycle());

    // 4. TMA from the harness matches TMA from exact totals.
    const TmaResult in_band =
        computeTma(harness.tmaCounters(), tmaParamsFor(core));
    const TmaResult oob = analyzeTma(core);
    EXPECT_NEAR(in_band.retiring, oob.retiring, 1e-9);
    EXPECT_NEAR(in_band.memBound, oob.memBound, 1e-9);

    // 5. Trace survives a store round-trip and re-analyzes identically.
    const std::string path = "/tmp/icicle_integration.icst";
    trace.toStore(path);
    const Trace loaded = Trace::fromStore(path);
    TraceAnalyzer analyzer(loaded);
    const TmaResult windowed =
        analyzer.windowTma(0, loaded.numCycles(), core.coreWidth());
    EXPECT_NEAR(windowed.retiring, oob.retiring, 1e-9);
    std::remove(path.c_str());

    // 6. The VLSI model consumes this run's activity factors.
    const VlsiReport report = evaluateVlsi(
        cfg, CounterArch::Distributed, measureActivity(core));
    EXPECT_TRUE(report.meets200MHz);
    EXPECT_GT(report.powerOverheadPct, 0.0);
}

// ---- invariant matrix across sizes x workloads ----------------------

class SizeByWorkload
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    static const std::vector<std::string> &
    names()
    {
        static const std::vector<std::string> list = {
            "towers", "qsort", "memcpy", "coremark"};
        return list;
    }
    BoomConfig config() const
    { return BoomConfig::allSizes()[std::get<0>(GetParam())]; }
    Program program() const
    { return buildWorkload(names()[std::get<1>(GetParam())]); }
};

TEST_P(SizeByWorkload, InvariantsHold)
{
    const BoomConfig cfg = config();
    BoomCore core(cfg, program());
    core.run(80'000'000);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.executor().exitCode(), 0u);

    // Architectural: retired instructions match the functional run.
    EXPECT_EQ(core.total(EventId::InstRetired),
              core.executor().instsRetired());
    // Slot conservation.
    const u64 slots = core.cycle() * cfg.coreWidth;
    EXPECT_LE(core.total(EventId::UopsRetired), slots);
    EXPECT_GE(core.total(EventId::UopsIssued),
              core.total(EventId::UopsRetired));
    // TMA classes are a partition.
    const TmaResult r = analyzeTma(core);
    EXPECT_NEAR(r.retiring + r.badSpeculation + r.frontend + r.backend,
                1.0, 1e-9);
    EXPECT_GE(r.memBound, r.memBoundDram - 1e-12);
    EXPECT_LE(r.fetchLatency, r.frontend + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SizeByWorkload,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 4)),
    [](const auto &info) {
        return BoomConfig::allSizes()[std::get<0>(info.param)].name +
               "_" +
               std::to_string(std::get<1>(info.param));
    });

// ---- bottom-up baseline (§II-B) -------------------------------------

TEST(BottomUp, AccurateOnInOrderBlockingCache)
{
    RocketCore core(RocketConfig{}, buildWorkload("memcpy"));
    core.run(80'000'000);
    ASSERT_TRUE(core.done());
    const BottomUpResult r = computeBottomUp(core);
    EXPECT_GT(r.overestimate(), 0.8);
    EXPECT_LT(r.overestimate(), 1.25) << formatBottomUpLine(r);
}

TEST(BottomUp, OverestimatesOnOutOfOrder)
{
    // Streaming misses overlap under MSHRs: static costs overshoot.
    BoomCore core(BoomConfig::large(), buildWorkload("memcpy"));
    core.run(80'000'000);
    ASSERT_TRUE(core.done());
    const BottomUpResult r = computeBottomUp(core);
    EXPECT_GT(r.overestimate(), 2.0) << formatBottomUpLine(r);
}

TEST(BottomUp, SerialMissesStayAccurateEvenOoO)
{
    // A dependent pointer chase has no miss-level parallelism: the
    // static-cost assumption happens to hold.
    BoomCore core(BoomConfig::large(),
                  workloads::pointerChase(16384, 4000));
    core.run(80'000'000);
    ASSERT_TRUE(core.done());
    const BottomUpResult r = computeBottomUp(core);
    EXPECT_GT(r.overestimate(), 0.8);
    EXPECT_LT(r.overestimate(), 1.3) << formatBottomUpLine(r);
}

TEST(BottomUp, LineFormatting)
{
    RocketCore core(RocketConfig{}, buildWorkload("towers"));
    core.run(80'000'000);
    const BottomUpResult r = computeBottomUp(core);
    EXPECT_NE(formatBottomUpLine(r).find("actual"),
              std::string::npos);
}

} // namespace
} // namespace icicle
