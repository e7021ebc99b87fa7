#include "pmu/counters.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "pmu/mutants.hh"

namespace icicle
{

namespace
{

/** Add `n` to an hpmWidth-bit register; true if it wrapped. */
bool
bump(u64 &reg, u64 n)
{
    reg += n;
    if (reg <= csr::hpmValueMask)
        return false;
    reg &= csr::hpmValueMask;
    return true;
}

} // namespace

const char *
counterArchName(CounterArch arch)
{
    switch (arch) {
      case CounterArch::Scalar: return "scalar";
      case CounterArch::AddWires: return "add-wires";
      case CounterArch::Distributed: return "distributed";
      default: return "?";
    }
}

u32
localWidthFor(u32 sources)
{
    return std::max<u32>(1, std::bit_width(sources - 1));
}

u64
undercountBound(u32 sources, u32 width)
{
    return static_cast<u64>(sources) << width;
}

u32
addWiresChainLength(u32 sources)
{
    return sources > 1 ? sources - 1 : 0;
}

// ------------------------------------------------------------- Scalar

bool
ScalarMachine::step(u64 mask, u64 cycles)
{
    if (ICICLE_MUTANT(ScalarLaneSkip) && lanes.size() > 1)
        mask &= ~(1ull << (lanes.size() - 1));
    bool wrapped = false;
    for (u64 m = mask; m; m &= m - 1)
        wrapped |= bump(lanes[std::countr_zero(m)], cycles);
    if (mask)
        wrapped |= bump(value, cycles);
    return wrapped;
}

u64
ScalarMachine::counted() const
{
    u64 total = 0;
    for (u64 v : lanes)
        total += v;
    return total;
}

void
ScalarMachine::clearAccumulators()
{
    value = 0;
    std::fill(lanes.begin(), lanes.end(), 0);
}

// ----------------------------------------------------------- AddWires

bool
AddWiresMachine::step(u64 mask, u64 cycles)
{
    // The adder chain computes the popcount of the asserted sources;
    // the RTL compiles to a sequential chain (see §IV-B), which is
    // functionally just the sum.
    u64 increment = static_cast<u64>(std::popcount(mask));
    if (ICICLE_MUTANT(AddWiresOrSemantics))
        increment = increment ? 1 : 0;
    return bump(value, increment * cycles);
}

// -------------------------------------------------------- Distributed

DistributedMachine::DistributedMachine(u32 sources, u32 local_width)
    : width(sources == 0 ? 0
            : local_width ? local_width
                          : localWidthFor(sources)),
      local(sources, 0)
{
    ICICLE_ASSERT(sources <= 64, "overflow latches hold 64 sources");
}

bool
DistributedMachine::step(u64 mask)
{
    // Local counters count their own source; on wrap they latch the
    // overflow register.
    const u64 wrap_at = ICICLE_MUTANT(WrapOffByOne) ? wrap() + 1 : wrap();
    for (u64 m = mask; m; m &= m - 1) {
        const u32 s = static_cast<u32>(std::countr_zero(m));
        if (ICICLE_MUTANT(SaturatingLocalAdd)) {
            if (local[s] + 1 < wrap())
                local[s]++;
            continue;
        }
        if (++local[s] == wrap_at) {
            local[s] = 0;
            // If the previous overflow was never drained we lose it:
            // real hardware saturates the latch. This cannot happen
            // with width >= localWidthFor(sources) because the arbiter
            // revisits each source every sources() cycles.
            overflow |= 1ull << s;
        }
    }

    // Rotating one-hot arbiter: inspect exactly one overflow latch per
    // cycle; clear-on-select.
    bool wrapped = false;
    const bool inspect =
        !(ICICLE_MUTANT(DrainSkipsSourceZero) && select == 0);
    if (inspect && (overflow >> select & 1)) {
        if (!ICICLE_MUTANT(StickyOverflowDrain))
            overflow &= ~(1ull << select);
        wrapped = bump(principal, 1);
    }
    if (ICICLE_MUTANT(ArbiterDoubleAdvance))
        select = (select + 2) % sources();
    else if (++select == sources())
        select = 0;
    return wrapped;
}

bool
DistributedMachine::step(u64 mask, u64 cycles)
{
    // A high source or a pending latch moves more than the arbiter, so
    // those cycles step one at a time. With no source high, one
    // rotation drains every latch.
    bool wrapped = false;
    for (; cycles > 0 && (mask || overflow); cycles--)
        wrapped |= step(mask);
    if (cycles > 0) {
        const u64 advance = ICICLE_MUTANT(ArbiterDoubleAdvance) ? 2 : 1;
        select = static_cast<u32>(
            (select + advance * (cycles % sources())) % sources());
    }
    return wrapped;
}

u64
DistributedMachine::residue() const
{
    u64 leftover = 0;
    for (u64 v : local)
        leftover += v;
    if (!ICICLE_MUTANT(ResidueDropsLatch))
        leftover += static_cast<u64>(std::popcount(overflow)) * wrap();
    return leftover;
}

// ------------------------------------------------------------ factory

CounterMachine
makeMachine(CounterArch arch, u32 sources)
{
    switch (arch) {
      case CounterArch::Scalar: return ScalarMachine(sources);
      case CounterArch::AddWires: return AddWiresMachine{};
      case CounterArch::Distributed: return DistributedMachine(sources);
      default: panic("unknown counter architecture");
    }
}

} // namespace icicle
