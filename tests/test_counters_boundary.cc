/**
 * @file
 * Boundary coverage for DistributedMachine::corrected() against exact
 * Scalar counts at the undercount boundary: localWidth in {1, 2, 4},
 * adversarial burst patterns engineered to saturate the rotating
 * one-hot arbiter, and verification of the end-of-run undercount
 * bound sources x 2^localWidth from §IV-B.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "pmu/counters.hh"
#include "pmu/event.hh"

using namespace icicle;

namespace
{

constexpr EventId kEvent = EventId::UopsIssued;

/** Drive both counters with the same cycle pattern; return exact. */
u64
drivePattern(ScalarMachine &scalar, DistributedMachine &distributed,
             EventBus &bus, u32 sources, u64 cycles,
             const std::function<u16(u64)> &mask_of_cycle)
{
    u64 exact = 0;
    for (u64 cycle = 0; cycle < cycles; cycle++) {
        bus.clear();
        const u16 mask =
            mask_of_cycle(cycle) & static_cast<u16>((1u << sources) - 1);
        for (u32 s = 0; s < sources; s++) {
            if (mask & (1u << s)) {
                bus.raise(kEvent, s);
                exact++;
            }
        }
        scalar.step(bus.mask(kEvent));
        distributed.step(bus.mask(kEvent));
    }
    return exact;
}

struct BoundaryCase
{
    u32 sources;
    u32 localWidth;
    /** Can a saturating burst lose overflow bits (2^w < sources)? */
    bool
    lossy() const
    {
        return (1u << localWidth) < sources;
    }
};

const BoundaryCase kCases[] = {
    // localWidth 1: boundary-safe only up to 2 sources.
    {1, 1}, {2, 1}, {4, 1}, {8, 1},
    // localWidth 2: safe up to 4 sources.
    {2, 2}, {4, 2}, {8, 2},
    // localWidth 4: safe for every shipped geometry (<= 16 sources).
    {4, 4}, {9, 4}, {16, 4},
};

} // namespace

TEST(DistributedBoundary, SaturatingBurstMatchesScalarWhenSized)
{
    // All sources firing every cycle is the worst case for the
    // arbiter: each local counter wraps as fast as possible while the
    // one-hot select visits it only every `sources` cycles.
    for (const BoundaryCase &c : kCases) {
        EventBus bus;
        bus.setNumSources(kEvent, c.sources);
        ScalarMachine scalar(c.sources);
        DistributedMachine distributed(c.sources, c.localWidth);

        const u64 exact = drivePattern(
            scalar, distributed, bus, c.sources, 10000,
            [](u64) { return 0xffff; });
        ASSERT_EQ(scalar.counted(), exact);

        if (c.lossy()) {
            // Overflow latches saturate: events are lost, not
            // deferred, and even corrected() cannot recover them.
            EXPECT_LT(distributed.corrected(), exact)
                << c.sources << " sources, width " << c.localWidth;
        } else {
            EXPECT_EQ(distributed.corrected(), exact)
                << c.sources << " sources, width " << c.localWidth;
            // The raw principal counter undercounts by at most the
            // local residues (sources x 2^localWidth, §IV-B) plus
            // the transient occupancy of undrained overflow latches
            // (< one wrap each).
            const u64 raw =
                distributed.read() * (1ull << c.localWidth);
            EXPECT_LE(exact - raw, 2 * distributed.undercountBound())
                << c.sources << " sources, width " << c.localWidth;
        }
    }
}

TEST(DistributedBoundary, PhasedBurstsTargetTheArbiterRotation)
{
    // Adversarial phasing: fire a source only on the cycles right
    // after the arbiter has passed it, maximizing latch residency.
    for (const BoundaryCase &c : kCases) {
        if (c.lossy())
            continue;
        EventBus bus;
        bus.setNumSources(kEvent, c.sources);
        ScalarMachine scalar(c.sources);
        DistributedMachine distributed(c.sources, c.localWidth);

        const u32 sources = c.sources;
        const u64 exact = drivePattern(
            scalar, distributed, bus, sources, 20000,
            [sources](u64 cycle) {
                // Source s fires except when the arbiter is one cycle
                // away from selecting it.
                u16 mask = 0;
                for (u32 s = 0; s < sources; s++) {
                    if ((cycle + 1) % sources != s)
                        mask |= static_cast<u16>(1u << s);
                }
                return mask;
            });
        EXPECT_EQ(distributed.corrected(), exact)
            << c.sources << " sources, width " << c.localWidth;
    }
}

TEST(DistributedBoundary, AlternatingBurstsAndSilence)
{
    // Bursts of exactly 2^localWidth - 1 events leave a local counter
    // one below wrap; the next burst's first event wraps it. This
    // walks the counter across the wrap boundary repeatedly.
    for (const BoundaryCase &c : kCases) {
        if (c.lossy())
            continue;
        EventBus bus;
        bus.setNumSources(kEvent, c.sources);
        ScalarMachine scalar(c.sources);
        DistributedMachine distributed(c.sources, c.localWidth);

        const u64 burst = (1ull << c.localWidth) - 1;
        const u64 exact = drivePattern(
            scalar, distributed, bus, c.sources, 8192,
            [burst](u64 cycle) {
                const u64 phase = cycle % (2 * burst + 2);
                return phase < burst + 1 ? 0xffff : 0;
            });
        EXPECT_EQ(distributed.corrected(), exact)
            << c.sources << " sources, width " << c.localWidth;
    }
}

TEST(DistributedBoundary, ResidueDecomposition)
{
    // corrected() must always equal principal * 2^w + residue, and
    // residue must stay below the undercount bound.
    EventBus bus;
    const u32 sources = 4;
    bus.setNumSources(kEvent, sources);
    DistributedMachine counter(sources, 2);
    for (u64 cycle = 0; cycle < 5000; cycle++) {
        bus.clear();
        bus.raiseLanes(kEvent, 1 + cycle % sources);
        counter.step(bus.mask(kEvent));
        ASSERT_EQ(counter.corrected(),
                  counter.read() * 4 + counter.residue());
        // Residue = local values (< wrap each) plus undrained latches
        // (wrap each), so it stays below twice the paper bound.
        ASSERT_LT(counter.residue(), 2 * counter.undercountBound());
    }
}

TEST(DistributedBoundary, StepMaskEquivalentToBusTick)
{
    // The prover drives counters through step(mask) with a generated
    // mask, the CSR file with the mask it samples from an EventBus;
    // the two paths must be indistinguishable. Replay identical
    // random bursts through both and compare corrected() every cycle.
    u64 rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    for (u32 width : {1u, 2u, 4u}) {
        const u32 sources = 4;
        EventBus bus;
        bus.setNumSources(kEvent, sources);
        DistributedMachine via_bus(sources, width);
        DistributedMachine via_step(sources, width);
        for (u64 cycle = 0; cycle < 20000; cycle++) {
            const u16 mask =
                static_cast<u16>(next() & ((1u << sources) - 1));
            bus.clear();
            for (u32 s = 0; s < sources; s++) {
                if (mask & (1u << s))
                    bus.raise(kEvent, s);
            }
            via_bus.step(bus.mask(kEvent));
            via_step.step(mask);
            ASSERT_EQ(via_bus.corrected(), via_step.corrected())
                << "width " << width << " cycle " << cycle;
        }
        ASSERT_EQ(via_bus, via_step) << "width " << width;
    }
}

TEST(DistributedBoundary, SnapshotRestoreRoundTripMatchesLiveRun)
{
    // A copy is the prover's snapshot and an assignment its restore:
    // freezing a counter mid-burst, restoring into a fresh instance,
    // and continuing the same schedule must be byte-for-byte
    // equivalent to never having stopped — for every width and at
    // every split point.
    u64 rng = 0xdeadbeefcafef00dull;
    auto next = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    for (u32 width : {1u, 2u, 4u}) {
        const u32 sources = 4;
        const u64 cycles = 4096;
        std::vector<u16> schedule(cycles);
        for (u64 c = 0; c < cycles; c++)
            schedule[c] =
                static_cast<u16>(next() & ((1u << sources) - 1));

        DistributedMachine live(sources, width);
        for (u64 c = 0; c < cycles; c++)
            live.step(schedule[c]);

        for (u64 split : {u64{1}, u64{7}, u64{1000}, cycles - 1}) {
            DistributedMachine first(sources, width);
            for (u64 c = 0; c < split; c++)
                first.step(schedule[c]);
            const DistributedMachine state = first;

            DistributedMachine resumed(sources, width);
            resumed = state;
            for (u64 c = split; c < cycles; c++)
                resumed.step(schedule[c]);

            ASSERT_EQ(resumed.corrected(), live.corrected())
                << "width " << width << " split " << split;
            ASSERT_EQ(resumed, live)
                << "width " << width << " split " << split;
        }
    }
}

TEST(DistributedBoundary, SingleSourceDegenerateCase)
{
    // sources = 1: the arbiter has one slot; no undercount beyond the
    // local residue is possible at any width.
    for (u32 width : {1u, 2u, 4u}) {
        EventBus bus;
        bus.setNumSources(kEvent, 1);
        ScalarMachine scalar(1);
        DistributedMachine distributed(1, width);
        const u64 exact =
            drivePattern(scalar, distributed, bus, 1, 3000,
                         [](u64 cycle) {
                             return cycle % 3 ? 0x1 : 0x0;
                         });
        EXPECT_EQ(distributed.corrected(), exact) << "width " << width;
    }
}
