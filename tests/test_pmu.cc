/**
 * @file
 * PMU tests: Table I event metadata, the event bus, the three counter
 * architectures of §IV-B (including the distributed design's
 * undercount bound and the paper's worked example), and the CSR-file
 * protocol of §IV-D.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "pmu/counters.hh"
#include "pmu/csr.hh"
#include "pmu/event.hh"

namespace icicle
{
namespace
{

// ------------------------------------------------------- Table I

TEST(Events, IcicleAddsThreeEventsToRocket)
{
    u32 added = 0;
    for (u32 e = 0; e < kNumEvents; e++) {
        const EventInfo info =
            eventInfo(CoreKind::Rocket, static_cast<EventId>(e));
        if (info.supported && info.addedByIcicle)
            added++;
    }
    EXPECT_EQ(added, 3u); // inst-issued, fetch-bubbles, recovering
}

TEST(Events, IcicleAddsSevenEventsToBoom)
{
    u32 added = 0;
    for (u32 e = 0; e < kNumEvents; e++) {
        const EventInfo info =
            eventInfo(CoreKind::Boom, static_cast<EventId>(e));
        if (info.supported && info.addedByIcicle)
            added++;
    }
    EXPECT_EQ(added, 7u);
}

TEST(Events, BoomNewEventsLiveInTmaSet)
{
    for (EventId id : {EventId::UopsIssued, EventId::FetchBubbles,
                       EventId::Recovering, EventId::UopsRetired,
                       EventId::FenceRetired, EventId::ICacheBlocked,
                       EventId::DCacheBlocked}) {
        EXPECT_EQ(eventInfo(CoreKind::Boom, id).set, EventSetId::Tma)
            << eventName(id);
    }
    // On Rocket the blocked events are legacy microarch events.
    EXPECT_EQ(eventInfo(CoreKind::Rocket, EventId::ICacheBlocked).set,
              EventSetId::Microarch);
}

TEST(Events, MaskBitsAreDenseAndUnique)
{
    for (CoreKind core : {CoreKind::Rocket, CoreKind::Boom}) {
        for (u32 s = 0; s < static_cast<u32>(EventSetId::NumSets); s++) {
            const auto events =
                eventsInSet(core, static_cast<EventSetId>(s));
            for (u64 i = 0; i < events.size(); i++)
                EXPECT_EQ(maskBitOf(core, events[i]),
                          static_cast<int>(i));
        }
    }
}

TEST(EventBus, RaiseAndCount)
{
    EventBus bus;
    bus.setNumSources(EventId::UopsIssued, 5);
    bus.raise(EventId::UopsIssued, 0);
    bus.raise(EventId::UopsIssued, 3);
    EXPECT_EQ(bus.count(EventId::UopsIssued), 2u);
    EXPECT_TRUE(bus.any(EventId::UopsIssued));
    EXPECT_EQ(bus.mask(EventId::UopsIssued), 0b1001u);
    bus.clear();
    EXPECT_EQ(bus.count(EventId::UopsIssued), 0u);
}

TEST(EventBus, RaiseLanes)
{
    EventBus bus;
    bus.raiseLanes(EventId::FetchBubbles, 3);
    EXPECT_EQ(bus.mask(EventId::FetchBubbles), 0b111u);
}

// -------------------------------------- counter architectures

class CounterArchTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    CounterArch arch() const
    {
        return static_cast<CounterArch>(std::get<0>(GetParam()));
    }
    u32 sources() const
    {
        return static_cast<u32>(std::get<1>(GetParam()));
    }
    u64 Seed() const
    {
        return 1000 + std::get<0>(GetParam()) * 37 +
               std::get<1>(GetParam());
    }
};

TEST_P(CounterArchTest, CorrectedValueIsExact)
{
    // Property: for any event stream, counted() equals the true total
    // for every architecture (Scalar's per-lane registers, AddWires'
    // register, Distributed's corrected principal).
    EventBus bus;
    bus.setNumSources(EventId::FetchBubbles, sources());
    CounterMachine counter = makeMachine(arch(), sources());
    Rng rng(Seed());
    u64 truth = 0;
    for (u32 cycle = 0; cycle < 5000; cycle++) {
        bus.clear();
        for (u32 s = 0; s < sources(); s++) {
            if (rng.chance(1, 3)) {
                bus.raise(EventId::FetchBubbles, s);
                truth++;
            }
        }
        std::visit([&](auto &m) { m.step(bus.mask(EventId::FetchBubbles)); },
                   counter);
    }
    std::visit([&](const auto &m) { EXPECT_EQ(m.counted(), truth); },
               counter);
}

TEST_P(CounterArchTest, ReadNeverOvercounts)
{
    EventBus bus;
    bus.setNumSources(EventId::FetchBubbles, sources());
    CounterMachine counter = makeMachine(arch(), sources());
    Rng rng(Seed() + 7);
    u64 truth = 0;
    for (u32 cycle = 0; cycle < 3000; cycle++) {
        bus.clear();
        for (u32 s = 0; s < sources(); s++) {
            if (rng.chance(1, 2)) {
                bus.raise(EventId::FetchBubbles, s);
                truth++;
            }
        }
        std::visit([&](auto &m) { m.step(bus.mask(EventId::FetchBubbles)); },
                   counter);
    }
    // Distributed read() is in units of 2^width; scale before
    // comparing.
    u64 read_events =
        std::visit([](const auto &m) { return m.read(); }, counter);
    if (arch() == CounterArch::Distributed) {
        const auto &dist = std::get<DistributedMachine>(counter);
        read_events = dist.read() * dist.wrap();
        EXPECT_LE(truth - read_events, dist.undercountBound());
    }
    EXPECT_LE(read_events, truth);
}

INSTANTIATE_TEST_SUITE_P(
    ArchBySources, CounterArchTest,
    ::testing::Combine(::testing::Range(0, 3),
                       ::testing::Values(1, 2, 3, 4, 5, 8, 9)),
    [](const auto &info) {
        std::string name = counterArchName(
            static_cast<CounterArch>(std::get<0>(info.param)));
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name + "_s" + std::to_string(std::get<1>(info.param));
    });

TEST(ScalarCounter, PerLaneValuesTracked)
{
    EventBus bus;
    bus.setNumSources(EventId::UopsIssued, 3);
    ScalarMachine counter(3);
    for (int i = 0; i < 10; i++) {
        bus.clear();
        bus.raise(EventId::UopsIssued, 0);
        if (i % 2 == 0)
            bus.raise(EventId::UopsIssued, 2);
        counter.step(bus.mask(EventId::UopsIssued));
    }
    EXPECT_EQ(counter.lanes[0], 10u);
    EXPECT_EQ(counter.lanes[1], 0u);
    EXPECT_EQ(counter.lanes[2], 5u);
    EXPECT_EQ(counter.counted(), 15u);
    EXPECT_EQ(counter.lanes.size(), 3u);
    // The shared register keeps Fig. 1's OR: one count per cycle.
    EXPECT_EQ(counter.read(), 10u);
}

TEST(AddWiresCounter, CountsConcurrentSourcesExactly)
{
    EventBus bus;
    bus.setNumSources(EventId::FetchBubbles, 4);
    AddWiresMachine counter;
    bus.raiseLanes(EventId::FetchBubbles, 4);
    counter.step(bus.mask(EventId::FetchBubbles));
    counter.step(bus.mask(EventId::FetchBubbles));
    EXPECT_EQ(counter.read(), 8u);
    EXPECT_EQ(counter.counted(), 8u);
    EXPECT_EQ(addWiresChainLength(4), 3u);
}

TEST(DistributedCounter, PaperWorkedExample)
{
    // §IV-B: fetch width 4 -> 4 sources, each local counter counts to
    // 3 before overflowing at 4 = 2^2; worst-case end-of-run
    // undercount is sources x 2^2 = 16 (the paper quotes 12 counting
    // only the pre-overflow residue of 3 per counter).
    DistributedMachine counter(4);
    EXPECT_EQ(counter.width, 2u);
    EXPECT_EQ(counter.undercountBound(), 16u);

    // Drive 929 fetch bubbles (the paper's smallest benchmark count)
    // through a single lane and check the relative error bound.
    EventBus bus;
    bus.setNumSources(EventId::FetchBubbles, 4);
    Rng rng(929);
    u64 truth = 0;
    while (truth < 929) {
        bus.clear();
        const u32 lane = static_cast<u32>(rng.below(4));
        bus.raise(EventId::FetchBubbles, lane);
        truth++;
        counter.step(bus.mask(EventId::FetchBubbles));
    }
    const u64 visible = counter.read() * 4;
    EXPECT_LE(truth - visible, counter.undercountBound());
    const double rel_err =
        static_cast<double>(truth - visible) /
        static_cast<double>(truth);
    EXPECT_LT(rel_err, 0.02); // paper: 1.28% worst case
    EXPECT_EQ(counter.corrected(), truth);
}

TEST(DistributedCounter, ArbiterDrainsOneOverflowPerCycle)
{
    // All four sources fire every cycle: each local counter wraps
    // every 4 cycles, exactly matching the one-per-cycle drain rate,
    // so the principal counter never falls behind by more than the
    // bound.
    EventBus bus;
    bus.setNumSources(EventId::FetchBubbles, 4);
    DistributedMachine counter(4);
    for (u32 c = 0; c < 4000; c++) {
        bus.clear();
        bus.raiseLanes(EventId::FetchBubbles, 4);
        counter.step(bus.mask(EventId::FetchBubbles));
    }
    const u64 truth = 4000 * 4;
    EXPECT_LE(truth - counter.read() * 4, counter.undercountBound());
    EXPECT_EQ(counter.corrected(), truth);
}

// ----------------------------------------------------------- CsrFile

TEST(CsrFile, SelectorEncoding)
{
    const u64 sel = csr::selector(EventSetId::Tma, 0b101, 3);
    EXPECT_EQ(sel & 0xff, 3u);          // set id
    EXPECT_EQ((sel >> 8) & 0xffff, 0b101u);
    EXPECT_EQ(sel >> 56, 3u);           // lane+1
}

TEST(CsrFile, FourStepProtocolCounts)
{
    EventBus bus;
    CsrFile csrs(CoreKind::Rocket, CounterArch::Scalar, &bus);
    // (2)+(3) configure counter 0 for the branch-mispredict event.
    csrs.programEvent(0, EventId::BranchMispredict);
    // Counters start inhibited; nothing counts yet.
    bus.clear();
    bus.raise(EventId::BranchMispredict);
    csrs.tick(bus);
    EXPECT_EQ(csrs.hpmValue(0), 0u);
    // (4) clear inhibit.
    csrs.setInhibit(false);
    csrs.tick(bus);
    csrs.tick(bus);
    EXPECT_EQ(csrs.hpmValue(0), 2u);
}

TEST(CsrFile, LegacyOrSemantics)
{
    // Fig. 1: two events on the same (scalar) counter asserting in
    // the same cycle increment it by only one.
    EventBus bus;
    CsrFile csrs(CoreKind::Rocket, CounterArch::Scalar, &bus);
    csrs.program(0, {EventId::ICacheMiss, EventId::DCacheMiss});
    csrs.setInhibit(false);
    bus.clear();
    bus.raise(EventId::ICacheMiss);
    bus.raise(EventId::DCacheMiss);
    csrs.tick(bus);
    EXPECT_EQ(csrs.hpmValue(0), 1u);
}

TEST(CsrFile, AddWiresCountsBothEvents)
{
    EventBus bus;
    CsrFile csrs(CoreKind::Rocket, CounterArch::AddWires, &bus);
    csrs.program(0, {EventId::ICacheMiss, EventId::DCacheMiss});
    csrs.setInhibit(false);
    bus.clear();
    bus.raise(EventId::ICacheMiss);
    bus.raise(EventId::DCacheMiss);
    csrs.tick(bus);
    EXPECT_EQ(csrs.hpmValue(0), 2u);
}

TEST(CsrFile, MixedSetMappingRejected)
{
    EventBus bus;
    CsrFile csrs(CoreKind::Rocket, CounterArch::Scalar, &bus);
    // ICacheMiss is Memory-set, Flush is Microarch-set on Rocket.
    const std::vector<EventId> mixed = {EventId::ICacheMiss,
                                        EventId::Flush};
    EXPECT_THROW(csrs.program(0, mixed), FatalError);
}

TEST(CsrFile, LaneSelectIsolatesOneSource)
{
    EventBus bus;
    bus.setNumSources(EventId::UopsIssued, 5);
    CsrFile csrs(CoreKind::Boom, CounterArch::Scalar, &bus);
    csrs.program(0, {EventId::UopsIssued}, 3); // lane 2 only
    csrs.setInhibit(false);
    bus.clear();
    bus.raise(EventId::UopsIssued, 0);
    bus.raise(EventId::UopsIssued, 2);
    csrs.tick(bus);
    bus.clear();
    bus.raise(EventId::UopsIssued, 0);
    csrs.tick(bus);
    EXPECT_EQ(csrs.hpmValue(0), 1u);
}

TEST(CsrFile, CsrAddressMapReadWrite)
{
    EventBus bus;
    CsrFile csrs(CoreKind::Boom, CounterArch::AddWires, &bus);
    csrs.writeCsr(csr::mcycle, 123);
    EXPECT_EQ(csrs.readCsr(csr::mcycle), 123u);
    EXPECT_EQ(csrs.readCsr(csr::cycle), 123u);
    csrs.writeCsr(csr::mcountinhibit, 0);
    bus.clear();
    csrs.tick(bus);
    EXPECT_EQ(csrs.readCsr(csr::mcycle), 124u);
    // Selector readback.
    const u64 sel = csr::selector(EventSetId::Tma, 1);
    csrs.writeCsr(csr::mhpmevent3 + 4, sel);
    EXPECT_EQ(csrs.readCsr(csr::mhpmevent3 + 4), sel);
    // Unknown CSRs read as zero.
    EXPECT_EQ(csrs.readCsr(0x123), 0u);
}

TEST(CsrFile, InBandReadOfConfiguredCounterIsLatched)
{
    // Only a configured counter's value depends on the counter
    // architecture; reading it in-band latches the sticky flag a
    // sweep checks before sharing one simulation across them.
    EventBus bus;
    CsrFile csrs(CoreKind::Boom, CounterArch::Distributed, &bus);
    csrs.writeCsr(csr::mcountinhibit, 0);
    csrs.readCsr(csr::mcycle);
    csrs.readCsr(csr::cycle);
    csrs.readCsr(csr::minstret);
    csrs.readCsr(csr::instret);
    csrs.readCsr(csr::mhpmcounter3 + 2);
    csrs.readCsr(csr::hpmcounter3 + 2);
    csrs.readCsr(csr::mhpmevent3 + 2);
    EXPECT_FALSE(csrs.configuredHpmRead());

    csrs.writeCsr(csr::mhpmevent3 + 2,
                  csr::selector(EventSetId::Tma, 1));
    // A configured counter that is never read leaves it clear; so
    // does a host-side (out-of-band) read.
    csrs.readCsr(csr::mhpmcounter3 + 1);
    EXPECT_EQ(csrs.hpmValue(2), 0u);
    EXPECT_FALSE(csrs.configuredHpmRead());
    csrs.readCsr(csr::hpmcounter3 + 2);
    EXPECT_TRUE(csrs.configuredHpmRead());
    // Sticky: unconfiguring the counter does not clear it.
    csrs.writeCsr(csr::mhpmevent3 + 2, 0);
    EXPECT_TRUE(csrs.configuredHpmRead());
}

TEST(CsrFile, ClearCountersResetsValues)
{
    EventBus bus;
    CsrFile csrs(CoreKind::Boom, CounterArch::AddWires, &bus);
    csrs.programEvent(2, EventId::Recovering);
    csrs.setInhibit(false);
    bus.clear();
    bus.raise(EventId::Recovering);
    csrs.tick(bus);
    EXPECT_EQ(csrs.hpmValue(2), 1u);
    csrs.clearCounters();
    EXPECT_EQ(csrs.hpmValue(2), 0u);
    EXPECT_EQ(csrs.cycles(), 0u);
}

// ------------------------------------- reliability degradation

TEST(CsrFile, SaturationLatchesInsteadOfSilentlyWrapping)
{
    // Counters implement csr::hpmWidth bits; a wrap must latch the
    // sticky saturation flag so the harness can mark the value
    // unreliable instead of reporting a silently truncated count.
    for (CounterArch arch :
         {CounterArch::Scalar, CounterArch::AddWires}) {
        SCOPED_TRACE(counterArchName(arch));
        EventBus bus;
        CsrFile csrs(CoreKind::Rocket, arch, &bus);
        csrs.programEvent(0, EventId::BranchMispredict);
        // Park the counter one increment below the implemented width
        // (writes while inhibited are protocol-clean).
        csrs.writeCsr(csr::mhpmcounter3, csr::hpmValueMask);
        EXPECT_FALSE(csrs.hpmSaturated(0));
        csrs.setInhibit(false);
        bus.clear();
        bus.raise(EventId::BranchMispredict);
        csrs.tick(bus);
        EXPECT_TRUE(csrs.hpmSaturated(0));
        EXPECT_EQ(csrs.hpmValue(0), 0u) << "value wraps like silicon";
        // Sticky: further clean ticks do not clear it.
        csrs.tick(bus);
        EXPECT_TRUE(csrs.hpmSaturated(0));
        // Reprogramming (inhibited) clears the flag.
        csrs.setInhibit(true);
        csrs.programEvent(0, EventId::BranchMispredict);
        EXPECT_FALSE(csrs.hpmSaturated(0));
    }
}

TEST(CsrFile, DistributedPrincipalSaturates)
{
    EventBus bus;
    bus.setNumSources(EventId::FetchBubbles, 2);
    CsrFile csrs(CoreKind::Boom, CounterArch::Distributed, &bus);
    csrs.programEvent(0, EventId::FetchBubbles);
    csrs.writeCsr(csr::mhpmcounter3, csr::hpmValueMask);
    csrs.setInhibit(false);
    // Drive both lanes until a local counter overflows and the
    // arbiter drains it into the (parked) principal counter.
    for (u32 c = 0; c < 16 && !csrs.hpmSaturated(0); c++) {
        bus.clear();
        bus.raise(EventId::FetchBubbles, 0);
        bus.raise(EventId::FetchBubbles, 1);
        csrs.tick(bus);
    }
    EXPECT_TRUE(csrs.hpmSaturated(0));
}

TEST(CsrFile, ArmedWriteLatchesWhenInhibitProtocolIsSkipped)
{
    EventBus bus;
    CsrFile csrs(CoreKind::Rocket, CounterArch::AddWires, &bus);
    csrs.programEvent(0, EventId::BranchMispredict);
    csrs.programEvent(1, EventId::ICacheMiss);
    // Protocol-clean so far: everything written while inhibited.
    EXPECT_FALSE(csrs.hpmArmedWrite(0));
    EXPECT_FALSE(csrs.hpmArmedWrite(1));

    csrs.setInhibit(false);
    // Writing the armed counter's value races the increment logic.
    csrs.writeCsr(csr::mhpmcounter3, 0);
    EXPECT_TRUE(csrs.hpmArmedWrite(0));
    EXPECT_FALSE(csrs.hpmArmedWrite(1)) << "flags are per-counter";
    // Reprogramming the armed counter's selector is also a breach.
    csrs.writeCsr(csr::mhpmevent3 + 1,
                  csrs.readCsr(csr::mhpmevent3 + 1));
    EXPECT_TRUE(csrs.hpmArmedWrite(1));

    // Inhibit, then reprogram: the clean protocol clears both flags.
    csrs.setInhibit(true);
    csrs.programEvent(0, EventId::BranchMispredict);
    csrs.programEvent(1, EventId::ICacheMiss);
    EXPECT_FALSE(csrs.hpmArmedWrite(0));
    EXPECT_FALSE(csrs.hpmArmedWrite(1));
}

TEST(CsrFile, InhibitedWritesNeverLatchArmedWrite)
{
    EventBus bus;
    CsrFile csrs(CoreKind::Rocket, CounterArch::Scalar, &bus);
    // Counters start inhibited: the four-step protocol's writes are
    // clean by construction.
    csrs.programEvent(3, EventId::DCacheMiss);
    csrs.writeCsr(csr::mhpmcounter3 + 3, 17);
    EXPECT_FALSE(csrs.hpmArmedWrite(3));
    EXPECT_FALSE(csrs.hpmSaturated(3));
}

TEST(CsrFile, SpanTickEqualsSingleTicks)
{
    // A core accounts an idle span with one tick(bus, k): it must
    // leave every counter exactly as k tick(bus) calls do, whichever
    // counters are live while it runs.
    const u64 inhibit_phases[] = {
        0,                          // everything counts
        0b101,                      // mcycle and minstret stopped
        ~0b101ull,                  // only mcycle and minstret count
        ~0ull,                      // everything stopped
        1ull << 3 | 1ull << 5,      // hpm0 and hpm2 stopped
        ~0b101ull & ~(1ull << 5),   // mcycle, minstret and hpm2 count
    };
    for (CounterArch arch : {CounterArch::Scalar, CounterArch::AddWires,
                             CounterArch::Distributed}) {
        SCOPED_TRACE(counterArchName(arch));
        EventBus bus;
        bus.setNumSources(EventId::FetchBubbles, 3);
        bus.setNumSources(EventId::UopsIssued, 5);
        bus.setNumSources(EventId::InstRetired, 3);
        CsrFile span(CoreKind::Boom, arch, &bus);
        CsrFile single(CoreKind::Boom, arch, &bus);
        for (CsrFile *csrs : {&span, &single}) {
            csrs->program(0, {EventId::FetchBubbles});
            csrs->program(1, {EventId::FetchBubbles}, 2); // lane 1 only
            csrs->program(2, {EventId::UopsIssued});
            csrs->program(3, {EventId::BranchMispredict, EventId::Flush});
            csrs->program(4, {EventId::InstRetired});
            // Parked below the implemented width: it wraps mid-run.
            csrs->writeCsr(csr::mhpmcounter3 + 2, csr::hpmValueMask - 40);
        }
        Rng rng(11);
        for (u32 round = 0; round < 600; round++) {
            if (round % 50 == 0) {
                const u64 bits = inhibit_phases[(round / 50) % 6];
                span.writeCsr(csr::mcountinhibit, bits);
                single.writeCsr(csr::mcountinhibit, bits);
            }
            bus.clear();
            bus.raise(EventId::Cycles);
            for (u32 lane = 0; lane < 5; lane++) {
                if (lane < 3 && rng.chance(1, 2))
                    bus.raise(EventId::FetchBubbles, lane);
                if (rng.chance(1, 2))
                    bus.raise(EventId::UopsIssued, lane);
                if (lane < 3 && rng.chance(1, 3))
                    bus.raise(EventId::InstRetired, lane);
            }
            if (rng.chance(1, 4))
                bus.raise(EventId::BranchMispredict);
            if (rng.chance(1, 4))
                bus.raise(EventId::Flush);
            const u64 cycles = 1 + rng.below(rng.chance(1, 5) ? 300 : 6);
            span.tick(bus, cycles);
            for (u64 c = 0; c < cycles; c++)
                single.tick(bus);
        }
        EXPECT_TRUE(single.hpmSaturated(2)) << "the parked counter wrapped";
        EXPECT_EQ(span.cycles(), single.cycles());
        EXPECT_EQ(span.instsRetired(), single.instsRetired());
        for (u32 i = 0; i < 5; i++) {
            EXPECT_EQ(span.snapshotHpm(i), single.snapshotHpm(i)) << i;
            EXPECT_EQ(span.hpmCorrected(i), single.hpmCorrected(i)) << i;
            EXPECT_EQ(span.hpmSaturated(i), single.hpmSaturated(i)) << i;
        }
    }

    // A Distributed span is closed form only while no watched source
    // is high and no latch is set. Start spans on the other side of
    // that line: with a latch set (the span must drain it first), and
    // with a watched source high (the span must step every cycle).
    for (bool source_high : {false, true}) {
        SCOPED_TRACE(source_high ? "source high" : "latch set");
        EventBus bus;
        bus.setNumSources(EventId::FetchBubbles, 3);
        CsrFile span(CoreKind::Boom, CounterArch::Distributed, &bus);
        CsrFile single(CoreKind::Boom, CounterArch::Distributed, &bus);
        for (CsrFile *csrs : {&span, &single}) {
            csrs->program(0, {EventId::FetchBubbles});
            csrs->setInhibit(false);
        }
        const auto latches = [&span] {
            return std::get<DistributedMachine>(span.snapshotHpm(0))
                .overflow;
        };
        Rng rng(source_high ? 23 : 17);
        for (u32 round = 0; round < 300; round++) {
            bus.clear();
            bus.raiseLanes(EventId::FetchBubbles, 3);
            while (!latches()) {
                span.tick(bus);
                single.tick(bus);
            }
            bus.clear();
            if (source_high)
                bus.raise(EventId::FetchBubbles,
                          static_cast<u32>(rng.below(3)));
            const u64 cycles = 1 + rng.below(12);
            span.tick(bus, cycles);
            for (u64 c = 0; c < cycles; c++)
                single.tick(bus);
            ASSERT_EQ(span.snapshotHpm(0), single.snapshotHpm(0))
                << "round " << round << ", span of " << cycles;
        }
        EXPECT_EQ(span.hpmCorrected(0), single.hpmCorrected(0));
    }
}

TEST(CsrFile, DistributedHpmCorrected)
{
    EventBus bus;
    bus.setNumSources(EventId::FetchBubbles, 3);
    CsrFile csrs(CoreKind::Boom, CounterArch::Distributed, &bus);
    csrs.programEvent(0, EventId::FetchBubbles);
    csrs.setInhibit(false);
    u64 truth = 0;
    Rng rng(5);
    for (u32 c = 0; c < 2000; c++) {
        bus.clear();
        for (u32 s = 0; s < 3; s++) {
            if (rng.chance(2, 5)) {
                bus.raise(EventId::FetchBubbles, s);
                truth++;
            }
        }
        csrs.tick(bus);
    }
    EXPECT_EQ(csrs.hpmCorrected(0), truth);
    EXPECT_LT(csrs.hpmValue(0), truth); // raw is in 2^w units
}

} // namespace
} // namespace icicle
