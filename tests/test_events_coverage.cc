/**
 * @file
 * Event-coverage tests: every event Table I declares supported on a
 * core must actually fire under some committed workload — a guard
 * against silently dead event wiring.
 */

#include <gtest/gtest.h>

#include "boom/boom.hh"
#include "isa/builder.hh"
#include "rocket/rocket.hh"
#include "workloads/workloads.hh"

namespace icicle
{
namespace
{

using namespace reg;

/** A kitchen-sink kernel exercising every pipeline corner. */
Program
kitchenSink()
{
    ProgramBuilder b("kitchen-sink");
    Label big = b.space(96 * 1024);   // misses + writebacks
    Label loop = b.newLabel(), skip = b.newLabel();
    b.la(s0, big);
    b.li(s1, 1500);
    b.li(s2, 0x5eed1);
    b.li(s3, 0);
    b.bind(loop);
    // xorshift + unpredictable branch (mispredicts, recovery)
    b.slli(t0, s2, 13);
    b.xor_(s2, s2, t0);
    b.srli(t0, s2, 7);
    b.xor_(s2, s2, t0);
    b.andi(t0, s2, 1);
    b.beqz(t0, skip);
    b.addi(s4, s4, 1);
    b.bind(skip);
    // strided stores + loads (D$ misses, releases, load-use)
    b.add(t1, s0, s3);
    b.sd(s2, t1, 0);
    b.ld(t2, t1, 0);
    b.add(s5, s5, t2);
    b.li(t3, 4096);
    b.add(s3, s3, t3);
    b.li(t3, 96 * 1024 - 4096);
    Label nowrap = b.newLabel();
    b.blt(s3, t3, nowrap);
    b.li(s3, 0);
    b.bind(nowrap);
    // long-latency arithmetic (interlocks)
    b.mul(t4, s2, s5);
    b.add(s6, s6, t4);
    b.andi(t5, s1, 127);
    Label no_div = b.newLabel();
    b.bnez(t5, no_div);
    b.ori(t5, s2, 1);
    b.div(t6, s5, t5);
    b.add(s6, s6, t6);
    b.fence();            // fence-retired, intended flush
    b.bind(no_div);
    b.addi(s1, s1, -1);
    Label finished = b.newLabel();
    b.beqz(s1, finished);
    b.j(loop); // a JAL: its first BTB miss raises cf-interlock
    b.bind(finished);
    b.li(a0, 0);
    b.halt();
    return b.build();
}

TEST(EventCoverage, RocketTableIEventsAllFire)
{
    RocketCore core(RocketConfig{}, kitchenSink());
    core.run(80'000'000);
    ASSERT_TRUE(core.done());

    // Events the kitchen sink cannot reach by design: TLBs default
    // off, atomics unsupported in RV64IM, replay unmodelled, machine
    // clears need OoO speculation, CSR interlock needs Zicsr code.
    const std::vector<EventId> exempt = {
        EventId::AtomicRetired, EventId::Exception,
        EventId::ITlbMiss,      EventId::DTlbMiss,
        EventId::L2TlbMiss,     EventId::Replay,
        EventId::Flush,         EventId::CsrInterlock,
        EventId::CtrlFlowTargetMispredict,
        EventId::DCacheBlockedDram, // L2-resident working set
        EventId::BranchResolved,    // BOOM-only signal
    };
    for (u32 e = 0; e < kNumEvents; e++) {
        const EventId id = static_cast<EventId>(e);
        const EventInfo info = eventInfo(CoreKind::Rocket, id);
        if (!info.supported)
            continue;
        bool exempted = false;
        for (EventId ex : exempt)
            exempted = exempted || ex == id;
        if (exempted)
            continue;
        EXPECT_GT(core.total(id), 0u)
            << "event never fired on Rocket: " << eventName(id);
    }
}

TEST(EventCoverage, BoomTableIEventsAllFire)
{
    BoomCore core(BoomConfig::large(), kitchenSink());
    core.run(80'000'000);
    ASSERT_TRUE(core.done());

    const std::vector<EventId> exempt = {
        EventId::ITlbMiss, EventId::DTlbMiss, EventId::L2TlbMiss,
        EventId::Flush, // machine clears need a store-load violation
        EventId::CtrlFlowTargetMispredict, // needs indirect jumps
    };
    for (u32 e = 0; e < kNumEvents; e++) {
        const EventId id = static_cast<EventId>(e);
        const EventInfo info = eventInfo(CoreKind::Boom, id);
        if (!info.supported)
            continue;
        bool exempted = false;
        for (EventId ex : exempt)
            exempted = exempted || ex == id;
        if (exempted)
            continue;
        EXPECT_GT(core.total(id), 0u)
            << "event never fired on BOOM: " << eventName(id);
    }
}

TEST(EventCoverage, RocketInstructionMixCountsAreConsistent)
{
    RocketCore core(RocketConfig{}, kitchenSink());
    core.run(80'000'000);
    ASSERT_TRUE(core.done());
    // The Basic-set class counters partition retired instructions.
    const u64 classified = core.total(EventId::LoadRetired) +
                           core.total(EventId::StoreRetired) +
                           core.total(EventId::ArithRetired) +
                           core.total(EventId::BranchRetired) +
                           core.total(EventId::SystemRetired) +
                           core.total(EventId::FenceRetired) +
                           core.total(EventId::AtomicRetired);
    EXPECT_EQ(classified, core.total(EventId::InstRetired));
}

TEST(EventCoverage, ExceptionFiresOnEcall)
{
    ProgramBuilder b("ecall");
    b.li(a0, 0);
    b.halt();
    BoomCore core(BoomConfig::small(), b.build());
    core.run(100000);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.total(EventId::Exception), 1u);
}

TEST(EventCoverage, JalrTargetMispredictFires)
{
    // An indirect jump alternating between two targets defeats the
    // BTB: CF-target-mispredict must fire on both cores.
    ProgramBuilder b("jalrswap");
    Label f1 = b.newLabel(), f2 = b.newLabel(), top = b.newLabel();
    Label table = b.space(16);
    b.j(top);
    b.bind(f1);
    b.addi(s2, s2, 1);
    b.ret();
    b.bind(f2);
    b.addi(s2, s2, 2);
    b.ret();
    b.bind(top);
    // table[0]=f1, table[1]=f2 (addresses computed with la pairs)
    b.la(t0, table);
    b.la(t1, f1);
    b.sd(t1, t0, 0);
    b.la(t1, f2);
    b.sd(t1, t0, 8);
    b.li(s0, 400);
    Label loop = b.newLabel();
    b.bind(loop);
    b.andi(t2, s0, 1);
    b.slli(t2, t2, 3);
    b.add(t2, t0, t2);
    b.ld(t3, t2, 0);
    b.jalr(reg::ra, t3, 0); // indirect call, alternating target
    b.addi(s0, s0, -1);
    b.bnez(s0, loop);
    b.li(a0, 0);
    b.halt();

    const Program program = b.build();
    RocketCore rocket(RocketConfig{}, program);
    rocket.run(1'000'000);
    ASSERT_TRUE(rocket.done());
    EXPECT_GT(rocket.total(EventId::CtrlFlowTargetMispredict), 100u);

    BoomCore boom(BoomConfig::large(), program);
    boom.run(1'000'000);
    ASSERT_TRUE(boom.done());
    EXPECT_GT(boom.total(EventId::CtrlFlowTargetMispredict), 100u);
}

} // namespace
} // namespace icicle
