/**
 * @file
 * Perf harness and tma_tool tests: the in-band CSR counting path must
 * agree with out-of-band ground truth for every counter architecture,
 * counter allocation must respect the 29-counter budget, and
 * multiplexing must produce sane scaled estimates.
 */

#include <array>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "boom/boom.hh"
#include "common/logging.hh"
#include "core/session.hh"
#include "isa/builder.hh"
#include "perf/harness.hh"
#include "perf/tma_tool.hh"
#include "pmu/csr.hh"
#include "rocket/rocket.hh"
#include "workloads/workloads.hh"

namespace icicle
{
namespace
{

class HarnessByArch : public ::testing::TestWithParam<int>
{
  protected:
    CounterArch arch() const
    { return static_cast<CounterArch>(GetParam()); }
};

TEST_P(HarnessByArch, InBandMatchesOutOfBandOnBoom)
{
    BoomConfig cfg = BoomConfig::large();
    cfg.counterArch = arch();
    BoomCore core(cfg, workloads::qsortKernel());
    PerfHarness harness(core);
    harness.addTmaEvents();
    harness.run(50'000'000);
    ASSERT_TRUE(core.done());

    // corrected() values must equal the exact host-side totals for
    // all three architectures (distributed via post-processing).
    for (EventId event :
         {EventId::UopsRetired, EventId::UopsIssued,
          EventId::FetchBubbles, EventId::Recovering,
          EventId::BranchMispredict, EventId::FenceRetired,
          EventId::DCacheBlocked}) {
        EXPECT_EQ(harness.value(event), core.total(event))
            << eventName(event) << " under "
            << counterArchName(arch());
    }
}

TEST_P(HarnessByArch, InBandMatchesOutOfBandOnRocket)
{
    RocketConfig cfg;
    cfg.counterArch = arch();
    RocketCore core(cfg, workloads::rsort());
    PerfHarness harness(core);
    harness.addTmaEvents();
    harness.run(50'000'000);
    ASSERT_TRUE(core.done());
    for (EventId event :
         {EventId::InstRetired, EventId::InstIssued,
          EventId::FetchBubbles, EventId::Recovering,
          EventId::ICacheBlocked, EventId::DCacheBlocked}) {
        EXPECT_EQ(harness.value(event), core.total(event))
            << eventName(event);
    }
}

INSTANTIATE_TEST_SUITE_P(Archs, HarnessByArch, ::testing::Range(0, 3),
                         [](const auto &info) {
                             std::string name = counterArchName(
                                 static_cast<CounterArch>(info.param));
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(PerfHarness, ScalarGigaTmaSetFitsExactly)
{
    // Scalar counters on GigaBOOM: 9 issue lanes + 3x5 commit-width
    // lanes + 5 singles = 29 counters, exactly the budget.
    BoomConfig cfg = BoomConfig::giga();
    cfg.counterArch = CounterArch::Scalar;
    BoomCore core(cfg, workloads::towers());
    PerfHarness harness(core);
    harness.addTmaEvents(/*level3=*/false);
    harness.run(10'000'000);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(harness.numGroups(), 1u);
    EXPECT_EQ(harness.countersUsed(), 29u);
}

TEST(PerfHarness, Level3ExtensionForcesMultiplexingOnScalarGiga)
{
    // The Mem-Bound split adds W_C more per-lane counters: the scalar
    // architecture overflows the 29-counter budget and the harness
    // falls back to time multiplexing.
    BoomConfig cfg = BoomConfig::giga();
    cfg.counterArch = CounterArch::Scalar;
    BoomCore core(cfg, workloads::towers());
    PerfHarness harness(core);
    harness.addTmaEvents(/*level3=*/true);
    harness.run(10'000'000);
    ASSERT_TRUE(core.done());
    EXPECT_GT(harness.numGroups(), 1u);
}

TEST(PerfHarness, AddWiresUsesOneCounterPerEvent)
{
    BoomConfig cfg = BoomConfig::giga();
    cfg.counterArch = CounterArch::AddWires;
    BoomCore core(cfg, workloads::towers());
    PerfHarness harness(core);
    harness.addTmaEvents(/*level3=*/false);
    harness.run(10'000'000);
    EXPECT_EQ(harness.countersUsed(), 9u);
}

TEST(PerfHarness, MultiplexingScalesEstimates)
{
    // Force two groups by requesting the TMA set plus enough extra
    // per-lane events to exceed 29 counters.
    BoomConfig cfg = BoomConfig::giga();
    cfg.counterArch = CounterArch::Scalar;
    BoomCore core(cfg, workloads::spec525X264R());
    PerfHarness harness(core);
    harness.addTmaEvents();
    harness.addEvent(EventId::ICacheMiss);
    harness.addEvent(EventId::DCacheMiss);
    harness.addEvent(EventId::BranchResolved);
    harness.run(50'000'000, 2000);
    ASSERT_TRUE(core.done());
    EXPECT_GT(harness.numGroups(), 1u);
    // Multiplexed estimates are extrapolations: allow generous error
    // but demand the right order of magnitude on a steady event.
    const u64 estimated = harness.value(EventId::UopsRetired);
    const u64 truth = core.total(EventId::UopsRetired);
    EXPECT_GT(estimated, truth / 2);
    EXPECT_LT(estimated, truth * 2);
}

/**
 * One PerfHarness run recorded before the harness advanced the core
 * through Core::run: the request is the level-3 TMA set plus
 * MultiplexingScalesEstimates' three extra events, on Scalar GigaBOOM
 * (two multiplex groups) or AddWires BOOM-large (one group).
 */
struct HarnessGolden
{
    bool multiplexed;
    const char *workload;
    u64 maxCycles;
    u64 epoch;
    /** Cycles simulated, which is also the core's final cycle. */
    u64 cycles;
    u32 groups;
    /** value() of each kGoldenEvents entry. */
    std::array<u64, 13> values;
};

constexpr EventId kGoldenEvents[] = {
    EventId::UopsRetired,      EventId::UopsIssued,
    EventId::FetchBubbles,     EventId::Recovering,
    EventId::BranchMispredict, EventId::Flush,
    EventId::FenceRetired,     EventId::ICacheBlocked,
    EventId::DCacheBlocked,    EventId::DCacheBlockedDram,
    EventId::ICacheMiss,       EventId::DCacheMiss,
    EventId::BranchResolved,
};

constexpr u64 kNoCap = ~0ull;

// Epoch 97 ends both workloads mid-epoch; 505.mcf_r stops at its cap.
const HarnessGolden kHarnessGoldens[] = {
    {true, "towers", kNoCap, 1, 42862, 2,
     {61408, 62958, 145772, 1176, 288, 0, 0, 120, 228, 172, 0, 6, 14684}},
    {true, "towers", kNoCap, 97, 42862, 2,
     {61372, 62060, 143909, 1181, 293, 0, 0, 135, 19, 380, 2, 2, 14514}},
    {true, "towers", kNoCap, 2000, 42862, 2,
     {60803, 61680, 142695, 1387, 337, 0, 0, 231, 389, 0, 0, 0, 14624}},
    {true, "towers", kNoCap, 10000, 42862, 2,
     {61051, 61829, 143308, 1282, 311, 0, 0, 223, 374, 0, 0, 0, 14564}},
    {true, "505.mcf_r", 200000, 1, 200000, 2,
     {24378, 202680, 36752, 5698, 1424, 0, 0, 312, 726134, 726224, 8, 2868,
      5714}},
    {true, "505.mcf_r", 200000, 97, 200000, 2,
     {24262, 203977, 37009, 5791, 1437, 0, 0, 351, 723575, 728783, 4, 2890,
      5734}},
    {true, "505.mcf_r", 200000, 2000, 200000, 2,
     {24302, 213260, 38762, 6036, 1494, 0, 0, 626, 711258, 741100, 0, 2864,
      5730}},
    {true, "505.mcf_r", 200000, 10000, 200000, 2,
     {24296, 205030, 38550, 5804, 1436, 0, 0, 626, 722184, 730174, 0, 2866,
      5742}},
    {false, "towers", kNoCap, 1, 42862, 1,
     {61436, 61683, 61799, 1176, 289, 0, 0, 115, 116, 116, 2, 3, 14464}},
    {false, "towers", kNoCap, 97, 42862, 1,
     {61436, 61683, 61799, 1176, 289, 0, 0, 115, 116, 116, 2, 3, 14464}},
    {false, "towers", kNoCap, 2000, 42862, 1,
     {61436, 61683, 61799, 1176, 289, 0, 0, 115, 116, 116, 2, 3, 14464}},
    {false, "towers", kNoCap, 10000, 42862, 1,
     {61436, 61683, 61799, 1176, 289, 0, 0, 115, 116, 116, 2, 3, 14464}},
    {false, "505.mcf_r", 200000, 1, 200000, 1,
     {24193, 153587, 13322, 5666, 1408, 0, 0, 226, 405256, 405256, 5, 2839,
      5677}},
    {false, "505.mcf_r", 200000, 97, 200000, 1,
     {24193, 153587, 13322, 5666, 1408, 0, 0, 226, 405256, 405256, 5, 2839,
      5677}},
    {false, "505.mcf_r", 200000, 2000, 200000, 1,
     {24193, 153587, 13322, 5666, 1408, 0, 0, 226, 405256, 405256, 5, 2839,
      5677}},
    {false, "505.mcf_r", 200000, 10000, 200000, 1,
     {24193, 153587, 13322, 5666, 1408, 0, 0, 226, 405256, 405256, 5, 2839,
      5677}},
};

void
PrintTo(const HarnessGolden &golden, std::ostream *os)
{
    *os << golden.workload << " epoch " << golden.epoch;
}

class HarnessGoldens : public ::testing::TestWithParam<HarnessGolden>
{};

TEST_P(HarnessGoldens, EpochRotationMatchesRecordedRun)
{
    const HarnessGolden &golden = GetParam();
    BoomConfig cfg =
        golden.multiplexed ? BoomConfig::giga() : BoomConfig::large();
    cfg.counterArch = golden.multiplexed ? CounterArch::Scalar
                                         : CounterArch::AddWires;
    BoomCore core(cfg, buildWorkload(golden.workload));
    PerfHarness harness(core);
    harness.addTmaEvents();
    harness.addEvent(EventId::ICacheMiss);
    harness.addEvent(EventId::DCacheMiss);
    harness.addEvent(EventId::BranchResolved);

    EXPECT_EQ(harness.run(golden.maxCycles, golden.epoch), golden.cycles);
    EXPECT_EQ(core.cycle(), golden.cycles);
    EXPECT_EQ(harness.numGroups(), golden.groups);
    for (size_t i = 0; i < golden.values.size(); i++) {
        EXPECT_EQ(harness.value(kGoldenEvents[i]), golden.values[i])
            << eventName(kGoldenEvents[i]);
    }
    EXPECT_TRUE(harness.unreliableEvents().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, HarnessGoldens, ::testing::ValuesIn(kHarnessGoldens),
    [](const auto &info) {
        std::string name = std::string(info.param.multiplexed
                                           ? "scalar_giga_"
                                           : "addwires_large_") +
                           info.param.workload + "_epoch" +
                           std::to_string(info.param.epoch);
        for (char &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

TEST(PerfHarness, GroupThatNeverRanIsMarkedNotCounted)
{
    // 5,000 cycles end inside the first 10,000-cycle epoch, so the
    // second group, which holds dcache-blocked-dram's five lanes, is
    // never programmed: its value reads 0 and must be flagged.
    BoomConfig cfg = BoomConfig::giga();
    cfg.counterArch = CounterArch::Scalar;
    BoomCore core(cfg, buildWorkload("505.mcf_r"));
    PerfHarness harness(core);
    harness.addTmaEvents();
    harness.run(5000);
    ASSERT_EQ(harness.numGroups(), 2u);
    EXPECT_EQ(harness.value(EventId::DCacheBlockedDram), 0u);
    EXPECT_GT(core.total(EventId::DCacheBlockedDram), 0u);

    EXPECT_TRUE(harness.anyUnreliable());
    const std::vector<UnreliableEvent> unreliable =
        harness.unreliableEvents();
    ASSERT_EQ(unreliable.size(), 1u);
    EXPECT_EQ(unreliable[0].event, EventId::DCacheBlockedDram);
    EXPECT_TRUE(unreliable[0].notCounted);
    EXPECT_FALSE(unreliable[0].saturated);
    EXPECT_FALSE(unreliable[0].armedWrite);

    BoomCore report_core(cfg, buildWorkload("505.mcf_r"));
    const TmaRun run =
        runTmaAnalysis(report_core, TmaSource::InBand, 5000);
    const std::string report = tmaToolReport(run, "505.mcf_r");
    EXPECT_NE(report.find(std::string("UNRELIABLE: ") +
                          eventName(EventId::DCacheBlockedDram) +
                          " (feeds Mem Bound (DRAM)) — not counted: its "
                          "multiplex group never ran"),
              std::string::npos)
        << report;
}

TEST(PerfHarness, RejectsUnsupportedEvent)
{
    BoomCore core(BoomConfig::large(), workloads::towers());
    PerfHarness harness(core);
    EXPECT_THROW(harness.addEvent(EventId::LoadUseInterlock),
                 FatalError);
}

TEST(TmaTool, InBandAndOutOfBandAgree)
{
    BoomConfig cfg = BoomConfig::large();
    cfg.counterArch = CounterArch::AddWires;
    BoomCore in_band_core(cfg, workloads::mergesort());
    BoomCore oob_core(cfg, workloads::mergesort());
    const TmaRun in_band =
        runTmaAnalysis(in_band_core, TmaSource::InBand, 50'000'000);
    const TmaRun oob =
        runTmaAnalysis(oob_core, TmaSource::OutOfBand, 50'000'000);
    ASSERT_TRUE(in_band.finished);
    ASSERT_TRUE(oob.finished);
    EXPECT_NEAR(in_band.tma.retiring, oob.tma.retiring, 1e-9);
    EXPECT_NEAR(in_band.tma.backend, oob.tma.backend, 1e-9);
    EXPECT_NEAR(in_band.tma.frontend, oob.tma.frontend, 1e-9);
}

/**
 * A workload that violates the inhibit-before-write protocol: it
 * clobbers mhpmcounter3 through the in-band Zicsr path while the
 * harness has the counter armed. Every TMA field fed by that counter
 * is garbage afterwards, and the harness must say so.
 */
Program counterClobberWorkload()
{
    ProgramBuilder b("clobber");
    Label warm = b.newLabel(), cool = b.newLabel();
    b.li(reg::t2, 2000);
    b.bind(warm);
    b.addi(reg::t2, reg::t2, -1);
    b.bnez(reg::t2, warm);
    b.csrrwi(reg::zero, csr::mhpmcounter3, 0);
    b.li(reg::t2, 2000);
    b.bind(cool);
    b.addi(reg::t2, reg::t2, -1);
    b.bnez(reg::t2, cool);
    b.halt();
    return b.build();
}

TEST(PerfHarness, InBandCounterClobberIsMarkedUnreliable)
{
    RocketCore core(RocketConfig{}, counterClobberWorkload());
    PerfHarness harness(core);
    harness.addTmaEvents();
    harness.run(1'000'000);
    ASSERT_TRUE(core.done());

    EXPECT_TRUE(harness.anyUnreliable());
    const std::vector<UnreliableEvent> unreliable =
        harness.unreliableEvents();
    ASSERT_FALSE(unreliable.empty());
    // The first TMA event lands on hpm index 0 = mhpmcounter3, the
    // counter the workload clobbers.
    EXPECT_EQ(unreliable[0].event, EventId::InstRetired);
    EXPECT_TRUE(unreliable[0].armedWrite);
    EXPECT_FALSE(unreliable[0].saturated);
}

TEST(PerfHarness, CleanRunsHaveNoUnreliableEvents)
{
    RocketCore core(RocketConfig{}, workloads::towers());
    PerfHarness harness(core);
    harness.addTmaEvents();
    harness.run(80'000'000);
    ASSERT_TRUE(core.done());
    EXPECT_FALSE(harness.anyUnreliable());
    EXPECT_TRUE(harness.unreliableEvents().empty());
}

TEST(TmaTool, ReportFlagsUnreliableCounters)
{
    RocketCore core(RocketConfig{}, counterClobberWorkload());
    const TmaRun run =
        runTmaAnalysis(core, TmaSource::InBand, 1'000'000);
    ASSERT_TRUE(run.finished);
    ASSERT_FALSE(run.unreliable.empty());

    const std::string report = tmaToolReport(run, "clobber");
    EXPECT_NE(report.find("UNRELIABLE"), std::string::npos);
    EXPECT_NE(report.find("Retiring"), std::string::npos);
    EXPECT_NE(report.find("written while armed"), std::string::npos);

    // A protocol-respecting run carries no warnings.
    RocketCore clean_core(RocketConfig{}, workloads::towers());
    const TmaRun clean =
        runTmaAnalysis(clean_core, TmaSource::InBand, 80'000'000);
    ASSERT_TRUE(clean.finished);
    EXPECT_TRUE(clean.unreliable.empty());
    EXPECT_EQ(tmaToolReport(clean, "towers").find("UNRELIABLE"),
              std::string::npos);
}

TEST(TmaTool, ReportMentionsCompletion)
{
    RocketCore core(RocketConfig{}, workloads::towers());
    const TmaRun run = runTmaAnalysis(core, TmaSource::OutOfBand);
    const std::string report = tmaToolReport(run, "towers");
    EXPECT_NE(report.find("towers"), std::string::npos);
    EXPECT_EQ(report.find("did not run"), std::string::npos);
}

} // namespace
} // namespace icicle
