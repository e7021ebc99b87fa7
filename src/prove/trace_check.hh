/**
 * @file
 * Trace-invariant verifier: replay .icst stores (and live capture
 * runs) against the PROVE-T rule family.
 *
 * Where the model checker (prove.hh) proves counter *architectures*
 * correct by exhaustive enumeration, this verifier checks that
 * recorded *data* obeys the invariants the TMA methodology depends
 * on. Every rule is derived from the core models' verified raising
 * behaviour, so a violation means either store corruption or a model
 * regression:
 *
 *  - PROVE-T1 (footer sanity): per-field popcounts never exceed the
 *    cycle count, and a traced Cycles signal is high every cycle.
 *  - PROVE-T2 (attribution exclusivity, BOOM-shaped bundles): no
 *    cycle asserts FetchBubbles and Recovering together — a slot is
 *    never attributed to both Frontend and Bad Speculation. (Skipped
 *    for Rocket-shaped bundles: the in-order model resolves
 *    mispredicts in the backend stage after the bubble sample point,
 *    so a single legal overlap cycle exists per redirect.)
 *  - PROVE-T3 (bubble contiguity, BOOM-shaped bundles): the asserted
 *    fetch-bubble lanes form one contiguous run — the decode stage
 *    fills lanes in order, so bubble lanes are an interval.
 *  - PROVE-T5 (TMA conservation): the windowed TMA over the full
 *    store satisfies the PROVE-R4 set derived for the store's core
 *    width (analysis/constraints.hh): every class in its interval and
 *    finite, top-level classes summing to one, child classes summing
 *    to and bounded by their parent, and an IPC bounded by the core
 *    width.
 *  - PROVE-T6 (codec integrity): per-field popcounts recomputed by
 *    decoding every plane equal the block-footer popcounts.
 *
 * PROVE-T4 is the live cross-check: run a core with CSR counters
 * programmed and a trace captured simultaneously from the same
 * EventBus, then require counter values, host-side ground-truth
 * totals, and trace popcounts to agree exactly.
 */

#ifndef ICICLE_PROVE_TRACE_CHECK_HH
#define ICICLE_PROVE_TRACE_CHECK_HH

#include <string>

#include "analysis/diagnostics.hh"
#include "pmu/counters.hh"

namespace icicle
{

class StoreReader;

/** Statistics from one store verification. */
struct TraceCheckStats
{
    u64 cycles = 0;
    u32 fields = 0;
    /** Inferred decode/commit width (fetch-bubble lane count). */
    u32 coreWidth = 0;
    /** Bundle carries BOOM lane semantics (UopsIssued traced)? */
    bool boomShaped = false;
    /** Rules actually evaluated (e.g. "T1 T2 T3 T5 T6"). */
    std::string rulesRun;
};

/**
 * Replay one .icst store against PROVE-T1/T2/T3/T5/T6. Findings are
 * appended to `report`.
 */
TraceCheckStats checkStoreInvariants(const StoreReader &reader,
                                     LintReport &report);

/** Parameters for the live counter-vs-trace cross-check. */
struct LiveCheckOptions
{
    /** Sweep-core name ("rocket", "boom-small", ...). */
    std::string coreName = "boom-small";
    CounterArch arch = CounterArch::Distributed;
    /** Registered workload name. */
    std::string workload = "dhrystone";
    u64 maxCycles = 200000;
};

/** Statistics from one live cross-check run. */
struct LiveCheckStats
{
    u64 cycles = 0;
    u32 eventsChecked = 0;
    u32 countersProgrammed = 0;
};

/**
 * PROVE-T4: run `workload` on `coreName` with counters of `arch`
 * programmed over the TMA events while capturing the TMA trace bundle
 * from the same bus, then require for every checked event:
 *
 *   CSR corrected value == host ground-truth total == trace popcount
 *
 * On the Scalar architecture multi-lane events are programmed one
 * counter per lane (the Table V per-lane mapping), because the legacy
 * OR semantics of a multi-source Scalar counter are intentionally
 * inexact.
 */
LiveCheckStats proveLiveCrossCheck(const LiveCheckOptions &options,
                                   LintReport &report);

} // namespace icicle

#endif // ICICLE_PROVE_TRACE_CHECK_HH
