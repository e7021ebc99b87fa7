/**
 * @file
 * Abstract core interface implemented by both timing models.
 *
 * Everything above the core models (perf harness, tracer, TMA tool,
 * benchmark drivers) programs against this interface, mirroring how
 * the real Icicle software stack works against either Rocket or BOOM
 * through the same CSR/event protocol. Both models derive from
 * CoreModel (core/model.hh), which implements the cycle loop behind
 * run() once for both.
 */

#ifndef ICICLE_CORE_CORE_HH
#define ICICLE_CORE_CORE_HH

#include <functional>
#include <memory>

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

    /** Program halted (pipeline drained)? */
    virtual bool done() const = 0;
    /**
     * Run until done or max_cycles; returns cycles simulated. This is
     * the only way to advance a core: to stop at a given cycle, run
     * to it. A tick that changes nothing but the core's timers is
     * followed by the identical cycles up to the next timer (never
     * past max_cycles), accounted at once. on_cycle still gets one
     * call per simulated cycle; the calls for such a span see the
     * core's state at its end.
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

} // namespace icicle

#endif // ICICLE_CORE_CORE_HH
