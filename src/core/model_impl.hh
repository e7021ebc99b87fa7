/**
 * @file
 * Out-of-line members of CoreModel (core/model.hh).
 *
 * Include only from a model's own .cc file, after everything the
 * stages call, and instantiate `template class CoreModel<Model>;`
 * there. tick() and tickSpan() then compile beside the stages, as if
 * the model had written them; defined inline in model.hh instead,
 * they would be expanded into every runCoreLoop caller, which measured
 * slower.
 */

#ifndef ICICLE_CORE_MODEL_IMPL_HH
#define ICICLE_CORE_MODEL_IMPL_HH

#include <algorithm>
#include <bit>

#include "core/model.hh"

namespace icicle
{

template <typename Model>
void
CoreModel<Model>::account(u64 cycles)
{
    // Only events raised this cycle can change a total. Bits are
    // counted one by one: std::popcount is a library call on baseline x86-64.
    u64 dirty = events.dirty();
    while (dirty) {
        const u32 e = static_cast<u32>(std::countr_zero(dirty));
        dirty &= dirty - 1;
        for (u16 bits = events.mask(static_cast<EventId>(e)); bits;
             bits &= bits - 1)
            laneTotals[e][std::countr_zero(bits)] += cycles;
    }
}

template <typename Model>
void
CoreModel<Model>::tick()
{
    events.clear();
    events.raise(EventId::Cycles);
    active = false;

    model().stages();

    csrs.tick(events);
    account(1);
    now++;
}

template <typename Model>
u64
CoreModel<Model>::tickSpan(u64 budget)
{
    tick();
    if (active || budget == 1)
        return 1;
    const u64 skipped = std::min(model().idleCycles(), budget - 1);
    if (skipped > 0) {
        csrs.tick(events, skipped);
        account(skipped);
        now += skipped;
        redirectWait -= static_cast<u32>(std::min<u64>(redirectWait, skipped));
    }
    return 1 + skipped;
}

template <typename Model>
u64
CoreModel<Model>::run(
    u64 max_cycles,
    const std::function<void(Cycle, const EventBus &)> &on_cycle)
{
    if (!on_cycle)
        return runLoop(max_cycles, [](Cycle, const EventBus &) {});
    return runLoop(max_cycles, [&on_cycle](Cycle c, const EventBus &b) {
        on_cycle(c, b);
    });
}

} // namespace icicle

#endif // ICICLE_CORE_MODEL_IMPL_HH
