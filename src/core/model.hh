/**
 * @file
 * The cycle loop both timing models share.
 *
 * Icicle's counters and TraceRV bundle sample the same per-cycle event
 * bus on Rocket and BOOM, so everything a cycle does outside the
 * pipeline is the same on both: clear the bus, raise `cycles`, tick
 * the CSR file, add the totals, jump over an idle span, stop at a run
 * bound. CoreModel owns that state and defines that loop once; a model
 * supplies only its stages and its timers.
 */

#ifndef ICICLE_CORE_MODEL_HH
#define ICICLE_CORE_MODEL_HH

#include <array>
#include <functional>
#include <type_traits>

#include "core/core.hh"
#include "pmu/csr.hh"
#include "pmu/event.hh"

namespace icicle
{

/**
 * Hand a span of `count` identical cycles starting at `first` to a
 * run loop's hook: in one call when the hook takes (first, bus,
 * count), else one (cycle, bus) call per cycle.
 */
template <typename F>
inline void
deliverSpan(F &hook, Cycle first, const EventBus &bus, u64 count)
{
    if constexpr (std::is_invocable_v<F &, Cycle, const EventBus &, u64>) {
        hook(first, bus, count);
    } else {
        for (u64 i = 0; i < count; i++)
            hook(first + i, bus);
    }
}

/**
 * Base of a timing model (CRTP: the loop reaches the model's stages
 * with no virtual call). `Model` supplies two members, kept private
 * by befriending CoreModel<Model>:
 *  - `void stages()`: one cycle of pipeline work on the cleared bus.
 *    It raises the cycle's events, sets `active` when it changes
 *    state besides a countdown (and on the tick that ends the
 *    redirect countdown), and sets `halted` once drained;
 *  - `u64 idleCycles() const`: after an idle tick, the cycles until
 *    the earliest of the model's timers (the redirect countdown
 *    among them) can change what a tick does.
 *
 * tick(), tickSpan(), account() and run() are defined in
 * core/model_impl.hh, which only the models' own .cc files include,
 * each next to its `template class CoreModel<Model>;`. The stages then
 * inline into the loop in that one translation unit, and every other
 * caller reaches tickSpan() through one call per span.
 */
template <typename Model>
class CoreModel : public Core
{
  public:
    bool done() const final { return halted; }
    u64 run(u64 max_cycles = ~0ull,
            const std::function<void(Cycle, const EventBus &)> &on_cycle =
                nullptr) final;

    /**
     * Batch tick loop with a statically-dispatched per-cycle hook: the
     * hook inlines, with no per-cycle virtual or std::function call.
     * Each step is one tick plus, when that tick was idle, the
     * identical cycles tickSpan() skips; the hook gets them through
     * deliverSpan().
     */
    template <typename F>
    u64
    runLoop(u64 max_cycles, F &&on_cycle)
    {
        u64 simulated = 0;
        while (!halted && simulated < max_cycles) {
            const Cycle first = now;
            const u64 count = tickSpan(max_cycles - simulated);
            deliverSpan(on_cycle, first, events, count);
            simulated += count;
        }
        return simulated;
    }

    Cycle cycle() const final { return now; }
    const EventBus &bus() const final { return events; }
    CsrFile &csrFile() final { return csrs; }

    /** Exact host-side event totals: the sum of the event's lanes. */
    u64
    total(EventId id) const final
    {
        u64 sum = 0;
        for (u64 lane : laneTotals[static_cast<u32>(id)])
            sum += lane;
        return sum;
    }
    u64
    laneTotal(EventId id, u32 lane) const final
    {
        return laneTotals[static_cast<u32>(id)][lane];
    }

  protected:
    CoreModel(CoreKind kind, CounterArch arch) : csrs(kind, arch, &events)
    {}

    EventBus events;
    CsrFile csrs;
    Cycle now = 0;
    /** The program halted and the pipeline drained. */
    bool halted = false;
    /** This tick changed state besides a countdown (see stages()). */
    bool active = false;
    /** Cycles the frontend must wait after a redirect. */
    u32 redirectWait = 0;

  private:
    /** Advance one clock cycle. */
    void tick();
    /**
     * Tick once. If the tick changed nothing but timers, every cycle
     * before the next timer fires repeats it exactly: account up to
     * budget - 1 of them at once. Returns the cycles simulated (at
     * least 1, at most budget).
     */
    u64 tickSpan(u64 budget);
    /** Account `cycles` more cycles with the current bus. */
    void account(u64 cycles);

    Model &model() { return static_cast<Model &>(*this); }

    std::array<std::array<u64, kMaxSources>, kNumEvents> laneTotals{};
};

} // namespace icicle

#endif // ICICLE_CORE_MODEL_HH
