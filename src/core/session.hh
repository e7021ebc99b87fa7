/**
 * @file
 * Top-level convenience API: build a core, run a workload, get TMA.
 *
 * This is the entry point a downstream user consumes:
 *
 *   auto core = makeBoom(BoomConfig::large(), program);
 *   core->run();
 *   TmaResult tma = analyzeTma(*core);
 */

#ifndef ICICLE_CORE_SESSION_HH
#define ICICLE_CORE_SESSION_HH

#include <memory>

#include "boom/boom.hh"
#include "core/core.hh"
#include "rocket/rocket.hh"
#include "tma/tma.hh"

namespace icicle
{

/** Construct a Rocket core as an abstract Core. */
std::unique_ptr<Core> makeRocket(const RocketConfig &config,
                                 const Program &program);

/** Construct a BOOM core as an abstract Core. */
std::unique_ptr<Core> makeBoom(const BoomConfig &config,
                               const Program &program);

/**
 * Gather the TMA counter inputs from a core's exact host-side event
 * totals (the out-of-band path; the PerfHarness provides the in-band
 * CSR path).
 */
TmaCounters gatherTmaCounters(const Core &core);

/** TMA model parameters appropriate for this core. */
TmaParams tmaParamsFor(const Core &core);

/** One-call out-of-band analysis: gather counters and run the model. */
TmaResult analyzeTma(const Core &core);

} // namespace icicle

#endif // ICICLE_CORE_SESSION_HH
