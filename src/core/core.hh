/**
 * @file
 * Abstract core interface implemented by both timing models.
 *
 * Everything above the core models (perf harness, tracer, TMA tool,
 * benchmark drivers) programs against this interface, mirroring how
 * the real Icicle software stack works against either Rocket or BOOM
 * through the same CSR/event protocol.
 */

#ifndef ICICLE_CORE_CORE_HH
#define ICICLE_CORE_CORE_HH

#include <functional>
#include <memory>
#include <type_traits>

#include "isa/executor.hh"
#include "pmu/csr.hh"
#include "pmu/event.hh"

namespace icicle
{

/** Abstract simulated core. */
class Core
{
  public:
    virtual ~Core() = default;

    /** Advance one clock cycle. */
    virtual void tick() = 0;
    /** Program halted (pipeline drained)? */
    virtual bool done() const = 0;
    /**
     * Run until done or max_cycles; returns cycles simulated. A tick
     * that changes nothing but the core's timers is followed by the
     * identical cycles up to the next timer (never past max_cycles),
     * accounted at once. on_cycle still gets one call per simulated
     * cycle; the calls for such a span see the core's state at its
     * end.
     */
    virtual u64
    run(u64 max_cycles = ~0ull,
        const std::function<void(Cycle, const EventBus &)> &on_cycle =
            nullptr) = 0;

    virtual Cycle cycle() const = 0;
    virtual const EventBus &bus() const = 0;
    virtual CsrFile &csrFile() = 0;
    /** Read-only view of the CSR file (lint and analysis passes). */
    const CsrFile &
    csrs() const
    {
        return const_cast<Core *>(this)->csrFile();
    }
    virtual Executor &executor() = 0;

    virtual CoreKind kind() const = 0;
    /** Decode = commit width W_C (1 on Rocket). */
    virtual u32 coreWidth() const = 0;
    /** Total issue width W_I (1 on Rocket). */
    virtual u32 issueWidth() const = 0;
    /** Human-readable configuration name. */
    virtual const char *name() const = 0;

    /** Exact host-side event totals (out-of-band ground truth). */
    virtual u64 total(EventId id) const = 0;
    /** Per-source totals where the event has multiple lanes. */
    virtual u64 laneTotal(EventId id, u32 lane) const = 0;
};

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

} // namespace icicle

#endif // ICICLE_CORE_CORE_HH
