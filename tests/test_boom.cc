/**
 * @file
 * BOOM core timing-model tests: OoO pipeline invariants across all
 * five Table IV sizes, per-lane event behaviour, speculation and
 * machine-clear modelling, and MSHR-driven memory-boundness.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <vector>

#include <unistd.h>

#include "boom/boom.hh"
#include "common/logging.hh"
#include "isa/builder.hh"
#include "workloads/workloads.hh"

namespace icicle
{
namespace
{

using namespace reg;

Program
countdownLoop(u64 iterations)
{
    ProgramBuilder b("countdown");
    Label loop = b.newLabel();
    b.li(t0, static_cast<i64>(iterations));
    b.bind(loop);
    b.addi(t0, t0, -1);
    b.bnez(t0, loop);
    b.li(a0, 0);
    b.halt();
    return b.build();
}

Program
ilpLoop(u64 iterations)
{
    // Six independent chains: a wide machine should exploit the ILP.
    ProgramBuilder b("ilp");
    Label loop = b.newLabel();
    b.li(t0, static_cast<i64>(iterations));
    b.bind(loop);
    b.addi(s0, s0, 1);
    b.addi(s1, s1, 2);
    b.addi(s2, s2, 3);
    b.addi(s3, s3, 4);
    b.addi(s4, s4, 5);
    b.addi(s5, s5, 6);
    b.addi(t0, t0, -1);
    b.bnez(t0, loop);
    b.li(a0, 0);
    b.halt();
    return b.build();
}

Program
pointerChase(u64 nodes, u64 hops)
{
    // A shuffled linked list larger than L2: every hop is a DRAM miss.
    ProgramBuilder b("chase");
    Rng rng(42);
    std::vector<u64> perm(nodes);
    for (u64 i = 0; i < nodes; i++)
        perm[i] = i;
    for (u64 i = nodes - 1; i > 0; i--)
        std::swap(perm[i], perm[rng.below(i + 1)]);
    std::vector<u64> next(nodes);
    const u64 stride = 64; // one node per cache block
    for (u64 i = 0; i < nodes; i++)
        next[perm[i]] = perm[(i + 1) % nodes] * stride;
    std::vector<u64> mem_image(nodes * stride / 8, 0);
    for (u64 i = 0; i < nodes; i++)
        mem_image[i * stride / 8] = next[i];
    Label list = b.dwords(mem_image);

    b.la(t0, list);
    b.mv(t1, t0);
    b.li(t2, static_cast<i64>(hops));
    Label loop = b.newLabel();
    b.bind(loop);
    b.ld(t3, t1, 0);  // next offset
    b.add(t1, t0, t3);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.li(a0, 0);
    b.halt();
    return b.build();
}

class BoomAllSizes : public ::testing::TestWithParam<int>
{
  protected:
    BoomConfig config() const
    { return BoomConfig::allSizes()[GetParam()]; }
};

TEST_P(BoomAllSizes, RunsToCompletion)
{
    BoomCore core(config(), countdownLoop(300));
    core.run(1000000);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.executor().exitCode(), 0u);
}

TEST_P(BoomAllSizes, RetiredMatchesExecutor)
{
    BoomCore core(config(), countdownLoop(300));
    core.run(1000000);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.total(EventId::InstRetired),
              core.executor().instsRetired());
    EXPECT_EQ(core.total(EventId::UopsRetired),
              core.executor().instsRetired());
}

TEST_P(BoomAllSizes, IssuedAtLeastRetired)
{
    BoomCore core(config(), countdownLoop(500));
    core.run(1000000);
    ASSERT_TRUE(core.done());
    EXPECT_GE(core.total(EventId::UopsIssued),
              core.total(EventId::UopsRetired));
}

TEST_P(BoomAllSizes, RetirePerCycleBoundedByWidth)
{
    BoomCore core(config(), ilpLoop(500));
    core.run(1000000);
    ASSERT_TRUE(core.done());
    EXPECT_LE(core.total(EventId::UopsRetired),
              core.total(EventId::Cycles) * config().coreWidth);
}

TEST_P(BoomAllSizes, IssueLanesBoundedByWidth)
{
    const BoomConfig cfg = config();
    BoomCore core(cfg, ilpLoop(500));
    core.run(1000000);
    ASSERT_TRUE(core.done());
    for (u32 lane = cfg.totalIssueWidth(); lane < kMaxSources; lane++)
        EXPECT_EQ(core.laneTotal(EventId::UopsIssued, lane), 0u);
}

TEST_P(BoomAllSizes, SlotConservation)
{
    // Fetch bubbles + retire slots never exceed total slots.
    const BoomConfig cfg = config();
    BoomCore core(cfg, countdownLoop(400));
    core.run(1000000);
    ASSERT_TRUE(core.done());
    const u64 slots = core.total(EventId::Cycles) * cfg.coreWidth;
    EXPECT_LE(core.total(EventId::FetchBubbles), slots);
    EXPECT_LE(core.total(EventId::UopsRetired), slots);
    EXPECT_LE(core.total(EventId::DCacheBlocked), slots);
}

INSTANTIATE_TEST_SUITE_P(AllSizes, BoomAllSizes,
                         ::testing::Range(0, 5),
                         [](const auto &info) {
                             return BoomConfig::allSizes()[info.param]
                                 .name;
                         });

TEST(Boom, SuperscalarBeatsSingleIssueOnIlp)
{
    BoomCore large(BoomConfig::large(), ilpLoop(2000));
    BoomCore small(BoomConfig::small(), ilpLoop(2000));
    large.run(10000000);
    small.run(10000000);
    ASSERT_TRUE(large.done());
    ASSERT_TRUE(small.done());
    // The 3-wide Large core must finish the ILP loop much faster.
    EXPECT_LT(large.cycle() * 3, small.cycle() * 2);
}

TEST(Boom, IpcAboveOneOnIlpCode)
{
    BoomCore core(BoomConfig::large(), ilpLoop(4000));
    core.run(10000000);
    ASSERT_TRUE(core.done());
    const double ipc =
        static_cast<double>(core.total(EventId::InstRetired)) /
        static_cast<double>(core.cycle());
    EXPECT_GT(ipc, 1.3) << "ipc=" << ipc;
}

TEST(Boom, PointerChaseIsMemoryBound)
{
    BoomCore core(BoomConfig::large(), pointerChase(16384, 4000));
    core.run(20000000);
    ASSERT_TRUE(core.done());
    // Most cycles should see a D$-blocked lane-0 event.
    const double blocked_frac =
        static_cast<double>(core.laneTotal(EventId::DCacheBlocked, 0)) /
        static_cast<double>(core.cycle());
    EXPECT_GT(blocked_frac, 0.4) << blocked_frac;
    EXPECT_GT(core.total(EventId::DCacheMiss), 3500u);
}

TEST(Boom, RandomBranchesCauseBadSpeculation)
{
    ProgramBuilder b("brrandom");
    Label loop = b.newLabel();
    Label skip = b.newLabel();
    b.li(s0, 987654321);
    b.li(s1, 6364136223846793005ll);
    b.li(s2, 1442695040888963407ll);
    b.li(t2, 3000);
    b.bind(loop);
    b.mul(s0, s0, s1);
    b.add(s0, s0, s2);
    b.srli(t0, s0, 32);
    b.andi(t0, t0, 1);
    b.beqz(t0, skip);
    b.addi(t3, t3, 1);
    b.bind(skip);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.halt();
    BoomCore core(BoomConfig::large(), b.build());
    core.run(20000000);
    ASSERT_TRUE(core.done());
    EXPECT_GT(core.branchMispredicts(), 600u);
    EXPECT_GT(core.total(EventId::Recovering), 600u);
    // Wrong-path uops issued then flushed: issued must clearly exceed
    // retired.
    EXPECT_GT(core.total(EventId::UopsIssued),
              core.total(EventId::UopsRetired) + 1000);
}

TEST(Boom, PredictableBranchesLearned)
{
    BoomCore core(BoomConfig::large(), countdownLoop(3000));
    core.run(10000000);
    ASSERT_TRUE(core.done());
    EXPECT_LT(core.branchMispredicts(), 40u);
}

TEST(Boom, FencesRetireAndRedirect)
{
    ProgramBuilder b("fence");
    b.li(t0, 8);
    Label loop = b.newLabel();
    b.bind(loop);
    b.fence();
    b.addi(t0, t0, -1);
    b.bnez(t0, loop);
    b.halt();
    BoomCore core(BoomConfig::large(), b.build());
    core.run(1000000);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.total(EventId::FenceRetired), 8u);
    EXPECT_GT(core.total(EventId::Recovering), 8u);
}

TEST(Boom, StoreLoadViolationTriggersMachineClear)
{
    // Store then immediately load the same address, with the store's
    // data arriving late through a divide: the load issues first and
    // must be squashed at least once before the store-set predictor
    // learns the dependence.
    ProgramBuilder b("stl");
    Label buf = b.dword(0);
    b.la(s0, buf);
    b.li(s1, 100);
    b.li(s2, 7);
    Label loop = b.newLabel();
    b.bind(loop);
    b.div(t0, s1, s2);  // slow producer
    b.sd(t0, s0, 0);    // store waits on divide
    b.ld(t1, s0, 0);    // load would speculate ahead
    b.add(t2, t2, t1);
    b.addi(s1, s1, -1);
    b.bnez(s1, loop);
    b.halt();
    BoomCore core(BoomConfig::large(), b.build());
    core.run(1000000);
    ASSERT_TRUE(core.done());
    EXPECT_GE(core.machineClears(), 1u);
    EXPECT_GE(core.total(EventId::Flush), 1u);
    // The predictor must stop the pathology from repeating forever.
    EXPECT_LT(core.machineClears(), 50u);
}

TEST(Boom, FetchBubbleLanesAreMonotonic)
{
    // Lane i fires when at most i uops were supplied, so higher lanes
    // fire at least as often (the Table V per-lane structure).
    BoomCore core(BoomConfig::large(), pointerChase(512, 2000));
    core.run(20000000);
    ASSERT_TRUE(core.done());
    const u32 width = core.config().coreWidth;
    for (u32 lane = 1; lane < width; lane++) {
        EXPECT_GE(core.laneTotal(EventId::FetchBubbles, lane),
                  core.laneTotal(EventId::FetchBubbles, lane - 1));
    }
}

TEST(Boom, FpIssueLaneSilentOnIntegerCode)
{
    // RV64IM workloads never touch the FP queue: its lanes stay at
    // zero (the Table V "lane 4 = 0.00" observation).
    const BoomConfig cfg = BoomConfig::large();
    BoomCore core(cfg, ilpLoop(1000));
    core.run(10000000);
    ASSERT_TRUE(core.done());
    const u32 fp_lane_base = cfg.issueWidth[0] + cfg.issueWidth[1];
    for (u32 lane = fp_lane_base; lane < cfg.totalIssueWidth(); lane++)
        EXPECT_EQ(core.laneTotal(EventId::UopsIssued, lane), 0u);
}

TEST(Boom, MshrLimitThrottlesMlp)
{
    // Independent misses: more MSHRs -> more memory-level parallelism.
    auto make = [] {
        ProgramBuilder b("mlp");
        Label buf = b.space(512 * 1024);
        b.la(s0, buf);
        b.li(s1, 4000);
        b.li(s2, 0);
        Label loop = b.newLabel();
        b.li(s3, 4096);
        b.bind(loop);
        b.add(t0, s0, s2);
        b.ld(t1, t0, 0);
        b.add(t0, t0, s3);
        b.ld(t2, t0, 0);
        b.add(t0, t0, s3);
        b.ld(t3, t0, 0);
        b.add(t0, t0, s3);
        b.ld(t4, t0, 0);
        b.addi(s2, s2, 64);
        b.andi(s2, s2, 2047);
        b.addi(s1, s1, -1);
        b.bnez(s1, loop);
        b.halt();
        return b.build();
    };
    BoomConfig few = BoomConfig::large();
    few.numMshrs = 1;
    BoomConfig many = BoomConfig::large();
    many.numMshrs = 8;
    BoomCore few_core(few, make());
    BoomCore many_core(many, make());
    few_core.run(50000000);
    many_core.run(50000000);
    ASSERT_TRUE(few_core.done());
    ASSERT_TRUE(many_core.done());
    EXPECT_LT(many_core.cycle(), few_core.cycle());
}

TEST(Boom, InBandCsrHarnessReadsCounters)
{
    // Software programs a counter for uops-retired via CSRs, runs a
    // loop, and reads the delta back (the §IV-D four-step protocol).
    ProgramBuilder b("csr");
    const u32 event_csr = csr::mhpmevent3;
    const u32 counter_csr = csr::mhpmcounter3;
    const u64 selector = csr::selector(
        EventSetId::Tma, 1ull << 3 /* set below via program() */);
    (void)selector;
    b.csrrwi(zero, csr::mcountinhibit, 0); // (4) clear inhibit
    b.csrrs(a1, counter_csr, zero);
    b.li(t0, 50);
    Label loop = b.newLabel();
    b.bind(loop);
    b.addi(t0, t0, -1);
    b.bnez(t0, loop);
    b.csrrs(a2, counter_csr, zero);
    b.sub(a0, a2, a1);
    b.halt();

    BoomCore core(BoomConfig::large(), b.build());
    core.csrFile().program(0, {EventId::UopsRetired});
    core.csrFile().setInhibit(false);
    core.run(1000000);
    ASSERT_TRUE(core.done());
    // ~100 uops retire between the two reads (50 iterations x 2).
    EXPECT_GT(core.executor().exitCode(), 80u);
    EXPECT_LT(core.executor().exitCode(), 200u);
    (void)event_csr;
}

TEST(Boom, DrainsAfterHalt)
{
    BoomCore core(BoomConfig::mega(), countdownLoop(10));
    const u64 cycles = core.run(100000);
    ASSERT_TRUE(core.done());
    EXPECT_LT(cycles, 100000u);
    EXPECT_EQ(core.total(EventId::Exception), 1u);
}

TEST(Boom, RejectsRobTooLargeForCompletionHandles)
{
    // A completion packs its ROB slot into 16 bits: 65536 entries is
    // the most a config may ask for.
    BoomConfig config = BoomConfig::small();
    config.robEntries = 1u << 16;
    EXPECT_NO_THROW(BoomCore core(config, countdownLoop(1)));
    config.robEntries = (1u << 16) + 1;
    EXPECT_THROW(BoomCore core(config, countdownLoop(1)), FatalError);
}

#ifdef __linux__
/** This process's resident set, from /proc/self/statm. */
u64
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    u64 size = 0;
    u64 resident = 0;
    statm >> size >> resident;
    return resident * static_cast<u64>(sysconf(_SC_PAGESIZE));
}

TEST(Boom, ResidentCostIsThePagesTheProgramTouches)
{
    // Each core's memory image is 16 MiB of demand-zero mapping: only
    // the code, data and stack pages coremark writes become resident.
    const Program program = buildWorkload("coremark");
    const u64 before = residentBytes();
    std::vector<std::unique_ptr<BoomCore>> cores;
    for (int i = 0; i < 8; i++) {
        cores.push_back(
            std::make_unique<BoomCore>(BoomConfig::large(), program));
        cores.back()->run(20000);
    }
    const u64 added = residentBytes() - before;
    EXPECT_LT(added, 16ull << 20) << "8 cores added " << added
                                  << " resident bytes";
}
#endif

} // namespace
} // namespace icicle
