/**
 * @file
 * Static dispatch into the core tick loops (ISSUE 7).
 *
 * The per-cycle hook paths (tracer, streaming store) used to go
 * through Core::run's std::function parameter: one type-erased hook
 * call per simulated cycle. Both concrete cores are final and inherit
 * CoreModel's template runLoop(); resolving the dynamic type once per
 * *run* instead of once per *cycle* lets the compiler inline the hook.
 */

#ifndef ICICLE_CORE_DISPATCH_HH
#define ICICLE_CORE_DISPATCH_HH

#include <utility>

#include "boom/boom.hh"
#include "common/logging.hh"
#include "core/core.hh"
#include "rocket/rocket.hh"

namespace icicle
{

/**
 * Run `core` for up to max_cycles with an inlined per-cycle hook.
 * Only the two shipped models run here: any other Core subclass is a
 * fatal error, so there is one per-cycle dispatch path. A hook also
 * callable as (first, bus, count) gets each idle span in one call;
 * a (cycle, bus) hook gets one call per cycle, and the calls for a
 * span see the core's state at its end (see Core::run).
 */
template <typename F>
u64
runCoreLoop(Core &core, u64 max_cycles, F &&hook)
{
    if (auto *rocket = dynamic_cast<RocketCore *>(&core))
        return rocket->runLoop(max_cycles, std::forward<F>(hook));
    if (auto *boom = dynamic_cast<BoomCore *>(&core))
        return boom->runLoop(max_cycles, std::forward<F>(hook));
    fatal("no per-cycle run loop for core model '", core.name(), "'");
}

} // namespace icicle

#endif // ICICLE_CORE_DISPATCH_HH
