/**
 * @file
 * Regression tests for the reference-after-pop bug class audited in
 * the SoA ring-buffer refactor. Each test pins one audited site by
 * driving the exact interleaving that made the old deque-based code
 * read popped/erased storage:
 *
 *  1. BoomCore::flushFrom machine-clear rebuild — the replay queue is
 *     rebuilt from fetchBuffer + ROB while fetchBuffer is cleared in
 *     the same call; the old code could walk invalidated deque
 *     storage when wrong-path entries were being filtered.
 *  2. BoomCore stageCommit/stageComplete STQ maintenance — commits
 *     erase the STQ head while a same-window flush truncates the
 *     tail; stale iterators or references into the erased range were
 *     possible with deque::erase.
 *  3. RocketCore tickBackend — a reference to ibuf.front() held
 *     across popFront() and the FenceI ibuf.clear().
 *  4. UopRing itself — in-place pushBack() slots written through
 *     wrap-around and growth, interleaved with pushFront/popFront.
 *
 * The refactored UopRing makes the bug class structural: front() is
 * by-value, and the peekFront() and pushBack() slot references are
 * documented as invalid after any push/pop. These tests are the
 * behavioral gate, with a direct check of the ring itself (4); in
 * the sanitize CI job they additionally run under ASan+UBSan, so a
 * reintroduced stale reference fails loudly rather than flakily.
 */

#include <gtest/gtest.h>

#include <deque>

#include "boom/boom.hh"
#include "common/random.hh"
#include "core/pipebuf.hh"
#include "isa/builder.hh"
#include "rocket/rocket.hh"

namespace icicle
{
namespace
{

using namespace reg;

/**
 * Store-load violations with unpredictable branches in flight: every
 * machine clear fires while the fetch buffer holds a mix of correct-
 * and wrong-path uops, so the flushFrom rebuild must filter entries
 * out of the buffer it is about to clear.
 */
Program
violationStorm(u64 iterations)
{
    ProgramBuilder b("violation-storm");
    Label buf = b.dword(0);
    Label skip = b.newLabel(), loop = b.newLabel();
    b.la(s0, buf);
    b.li(s1, static_cast<i64>(iterations));
    b.li(s2, 7);
    b.bind(loop);
    b.div(t0, s1, s2);  // slow producer feeding the store
    b.sd(t0, s0, 0);    // store stalls on the divide
    b.ld(t1, s0, 0);    // load speculates ahead -> ordering clear
    b.add(t2, t2, t1);
    b.andi(t3, t1, 1);  // data-dependent branch: mispredicts keep
    b.beqz(t3, skip);   // wrong-path uops in the fetch buffer
    b.addi(t4, t4, 1);
    b.bind(skip);
    b.addi(s1, s1, -1);
    b.bnez(s1, loop);
    b.halt();
    return b.build();
}

/**
 * Dense store traffic punctuated by violations and fences: STQ heads
 * are erased at commit in the same windows where machine clears pop
 * the STQ tail, covering both removal paths against each other.
 */
Program
storeChurn(u64 iterations)
{
    ProgramBuilder b("store-churn");
    Label buf = b.space(64);
    Label loop = b.newLabel();
    b.la(s0, buf);
    b.li(s1, static_cast<i64>(iterations));
    b.li(s2, 9);
    b.bind(loop);
    b.sd(s1, s0, 0);
    b.sd(s1, s0, 8);
    b.sd(s1, s0, 16);
    b.div(t0, s1, s2);
    b.sd(t0, s0, 24);   // late store...
    b.ld(t1, s0, 24);   // ...raced by a speculating load
    b.fence();          // drains the STQ behind the clears
    b.addi(s1, s1, -1);
    b.bnez(s1, loop);
    b.halt();
    return b.build();
}

class BoomReplayAllSizes : public ::testing::TestWithParam<int>
{
  protected:
    BoomConfig config() const
    { return BoomConfig::allSizes()[GetParam()]; }
};

TEST_P(BoomReplayAllSizes, MachineClearRebuildIsSound)
{
    BoomCore core(config(), violationStorm(200));
    core.run(2'000'000);
    ASSERT_TRUE(core.done());
    // The pathology must actually fire or the site went untested.
    EXPECT_GE(core.machineClears(), 1u);
    // Zero behavioral drift: replayed execution retires exactly what
    // the functional executor ran.
    EXPECT_EQ(core.total(EventId::InstRetired),
              core.executor().instsRetired());
}

TEST_P(BoomReplayAllSizes, StqCommitAndFlushInterleave)
{
    BoomCore core(config(), storeChurn(120));
    core.run(2'000'000);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.total(EventId::InstRetired),
              core.executor().instsRetired());
    // Every store either committed or was squashed; a desynced STQ
    // asserts inside stageCommit long before this check.
    EXPECT_GE(core.total(EventId::FenceRetired), 120u);
}

INSTANTIATE_TEST_SUITE_P(AllSizes, BoomReplayAllSizes,
                         ::testing::Range(0, 5));

TEST(RocketReplay, FenceIClearsBufferedUopsSafely)
{
    // fence.i in a loop with instructions already decoded behind it:
    // the backend copies the head uop, pops it, then clears the whole
    // buffer — the old code's head reference would dangle here.
    ProgramBuilder b("fencei-loop");
    Label loop = b.newLabel();
    b.li(t0, 50);
    b.bind(loop);
    b.addi(t1, t1, 1);
    b.fenceI();
    b.addi(t2, t2, 2);  // buffered past the fence, must be refetched
    b.addi(t0, t0, -1);
    b.bnez(t0, loop);
    b.halt();
    RocketCore core(RocketConfig{}, b.build());
    core.run(1'000'000);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.total(EventId::InstRetired),
              core.executor().instsRetired());
}

/** Write every field of a uop, as fetch does into a ring slot. */
void
fillUop(PipeUop &uop, u64 id)
{
    uop.ret.pc = 0x1000 + 4 * id;
    uop.ret.inst.op = static_cast<Op>(id % 4);
    uop.ret.inst.rd = static_cast<u8>(id % 32);
    uop.ret.inst.rs1 = static_cast<u8>((id + 1) % 32);
    uop.ret.inst.rs2 = static_cast<u8>((id + 2) % 32);
    uop.ret.inst.imm = -static_cast<i64>(id);
    uop.ret.inst.raw = static_cast<u32>(id * 2654435761u);
    uop.ret.nextPc = 0x1004 + 4 * id;
    uop.ret.taken = id % 3 == 0;
    uop.ret.memAddr = 0x8000 + 8 * id;
    uop.ret.memSize = static_cast<u8>(1u << (id % 4));
    uop.ret.halted = id % 5 == 0;
    uop.predictedNext = 0x2000 + id;
    uop.flags = static_cast<u8>(id % 8);
}

void
expectSameUop(const PipeUop &got, const PipeUop &want)
{
    EXPECT_EQ(got.ret.pc, want.ret.pc);
    EXPECT_EQ(got.ret.inst, want.ret.inst);
    EXPECT_EQ(got.ret.inst.raw, want.ret.inst.raw);
    EXPECT_EQ(got.ret.nextPc, want.ret.nextPc);
    EXPECT_EQ(got.ret.taken, want.ret.taken);
    EXPECT_EQ(got.ret.memAddr, want.ret.memAddr);
    EXPECT_EQ(got.ret.memSize, want.ret.memSize);
    EXPECT_EQ(got.ret.halted, want.ret.halted);
    EXPECT_EQ(got.predictedNext, want.predictedNext);
    EXPECT_EQ(got.flags, want.flags);
}

/** The ring holds exactly the model's entries, oldest first. */
void
expectRingMatches(const UopRing &ring, const std::deque<PipeUop> &model)
{
    ASSERT_EQ(ring.size(), model.size());
    ASSERT_EQ(ring.empty(), model.empty());
    if (model.empty())
        return;
    expectSameUop(ring.front(), model.front());
    expectSameUop(ring.peekFront(), model.front());
    for (u64 i = 0; i < model.size(); i++) {
        expectSameUop(ring.at(i), model[i]);
        ASSERT_EQ(ring.flagsAt(i), model[i].flags);
    }
}

TEST(UopRingSlots, InPlaceFillsSurviveWrapAndGrowth)
{
    UopRing ring; // minimum capacity: 8
    std::deque<PipeUop> model;
    u64 next_id = 1;
    auto push_back = [&] {
        const u64 id = next_id++;
        fillUop(ring.pushBack(), id);
        fillUop(model.emplace_back(), id);
    };
    auto push_front = [&] {
        PipeUop uop;
        fillUop(uop, next_id++);
        ring.pushFront(uop);
        model.push_front(uop);
    };
    auto pop_front = [&] {
        ring.popFront();
        model.pop_front();
    };

    // Wrap the ring, fill it, then grow it from a pushBack while the
    // live entries straddle the end of the array.
    for (int i = 0; i < 5; i++)
        push_back();
    for (int i = 0; i < 3; i++)
        pop_front();
    for (int i = 0; i < 6; i++)
        push_back();
    expectRingMatches(ring, model); // full at 8, head mid-array
    push_back();                    // grows to 16 while wrapped
    expectRingMatches(ring, model);
    // Fill the 16 with pushFront (head walks backwards past slot 0),
    // then grow again from a pushFront.
    for (int i = 0; i < 7; i++)
        push_front();
    expectRingMatches(ring, model);
    push_front(); // grows to 32
    expectRingMatches(ring, model);

    // Seeded mixed walk: pushes outnumber pops, so the ring wraps at
    // every size and doubles at random head positions.
    Rng rng(11);
    for (u32 step = 0; step < 2'000; step++) {
        const u64 roll = rng.below(100);
        if (roll < 40 || model.empty()) {
            push_back();
        } else if (roll < 55) {
            push_front();
        } else if (roll < 95) {
            pop_front();
        } else {
            ring.popBack();
            model.pop_back();
        }
        expectRingMatches(ring, model);
    }
    EXPECT_GT(model.size(), 64u); // grew past 64: two more doublings
}

} // namespace
} // namespace icicle
