/**
 * @file
 * Top-Down Microarchitectural Analysis model (paper Table II).
 *
 * Maps raw performance-counter values onto the hierarchical TMA
 * classes of Fig. 5: the top level (Retiring / Bad Speculation /
 * Frontend / Backend) and the second-level children Icicle supports
 * (Machine Clears, Branch Mispredicts, Resteers, Recovery Bubbles,
 * Fetch Latency, PC Resteer, Core Bound, Mem Bound).
 *
 * Fidelity notes relative to the paper's Table II:
 *  - The "non-fence flush ratio" M_nf_r is printed in the paper as
 *    (C_bm + C_fence)/M_tf, contradicting its own label; we implement
 *    the labelled semantics (C_bm + C_flush)/M_tf so fence flushes,
 *    which are intended behaviour, are excluded from Bad Speculation.
 *  - The recovering counter counts cycles; wherever it enters a slot
 *    ratio we scale by the core width, consistently with the
 *    top-level Bad Speculation row.
 *  - The M_rl * C_bm term deliberately overestimates mispredict
 *    recovery, as §IV-A discusses.
 */

#ifndef ICICLE_TMA_TMA_HH
#define ICICLE_TMA_TMA_HH

#include <array>
#include <string>

#include "common/types.hh"
#include "pmu/event.hh"

namespace icicle
{

/** Raw counter values the TMA model consumes. */
struct TmaCounters
{
    u64 cycles = 0;
    /** Retired uops (instret on Rocket). */
    u64 retiredUops = 0;
    /** Issued uops, summed over issue lanes. */
    u64 issuedUops = 0;
    /** Fetch-bubble slot events, summed over decode lanes. */
    u64 fetchBubbles = 0;
    /** Cycles the frontend spent recovering after flushes. */
    u64 recovering = 0;
    u64 branchMispredicts = 0;
    /** Machine clears (pipeline flushes excluding fences/branches). */
    u64 machineClears = 0;
    u64 fencesRetired = 0;
    /** Cycles the I$-blocked condition held. */
    u64 icacheBlocked = 0;
    /** D$-blocked slot events, summed over commit lanes. */
    u64 dcacheBlocked = 0;
    /** D$-blocked slots overlapping a DRAM-level refill (level 3). */
    u64 dcacheBlockedDram = 0;
};

/** One event-fed TmaCounters field and the event feeding it per core. */
struct TmaInput
{
    u64 TmaCounters::*field;
    EventId boom;
    EventId rocket;
    /** Level-3 input (the Mem Bound split), counted on request only. */
    bool level3;
    /** The Table II class the field feeds, for reports. */
    const char *feeds;

    EventId
    event(CoreKind kind) const
    {
        return kind == CoreKind::Boom ? boom : rocket;
    }
};

/**
 * Table II's inputs: every TmaCounters field but `cycles`. The order
 * is the order PerfHarness requests the events in, which fixes how
 * they pack into multiplex groups.
 */
inline constexpr std::array<TmaInput, 10> kTmaInputs = {{
    {&TmaCounters::retiredUops, EventId::UopsRetired,
     EventId::InstRetired, false, "Retiring"},
    {&TmaCounters::issuedUops, EventId::UopsIssued, EventId::InstIssued,
     false, "Bad Speculation"},
    {&TmaCounters::fetchBubbles, EventId::FetchBubbles,
     EventId::FetchBubbles, false, "Frontend Bound"},
    {&TmaCounters::recovering, EventId::Recovering, EventId::Recovering,
     false, "Recovery Bubbles"},
    {&TmaCounters::branchMispredicts, EventId::BranchMispredict,
     EventId::BranchMispredict, false, "Branch Mispredicts"},
    {&TmaCounters::machineClears, EventId::Flush, EventId::Flush, false,
     "Machine Clears"},
    {&TmaCounters::fencesRetired, EventId::FenceRetired,
     EventId::FenceRetired, false, "Machine Clears"},
    {&TmaCounters::icacheBlocked, EventId::ICacheBlocked,
     EventId::ICacheBlocked, false, "Fetch Latency"},
    {&TmaCounters::dcacheBlocked, EventId::DCacheBlocked,
     EventId::DCacheBlocked, false, "Mem Bound"},
    {&TmaCounters::dcacheBlockedDram, EventId::DCacheBlockedDram,
     EventId::DCacheBlockedDram, true, "Mem Bound (DRAM)"},
}};

/** One TMA breakdown; every field is a fraction of total slots. */
struct TmaResult
{
    // ---- top level ----
    double retiring = 0;
    double badSpeculation = 0;
    double frontend = 0;
    double backend = 0;
    // ---- level 2: Bad Speculation ----
    double machineClears = 0;
    double branchMispredicts = 0;
    double resteers = 0;
    double recoveryBubbles = 0;
    // ---- level 2: Frontend ----
    double fetchLatency = 0;
    double pcResteer = 0;
    // ---- level 2: Backend ----
    double coreBound = 0;
    double memBound = 0;
    // ---- level 3: Mem Bound (Icicle extension) ----
    double memBoundL2 = 0;
    double memBoundDram = 0;
    // ---- convenience metrics ----
    double ipc = 0;       ///< retired uops per cycle
    u64 totalSlots = 0;
    u64 cycles = 0;
};

/** TMA model parameters. */
struct TmaParams
{
    /** Core (decode = commit) width W_C; 1 on Rocket. */
    u32 coreWidth = 1;
    /** M_rl: assumed frontend recovery length per mispredict. */
    u32 recoverLength = 4;
    /**
     * Table II's printed M_nf_r formula is (C_bm + C_fence)/M_tf,
     * contradicting its own "non-fence flush ratio" label; by default
     * we implement the labelled semantics (C_bm + C_flush)/M_tf so
     * intended fence flushes never inflate Bad Speculation (TMA-005).
     * Set this to reproduce the paper's printed formula verbatim.
     */
    bool paperLiteralNfr = false;
};

/**
 * Apply the Table II model.
 * All class fractions are clamped into [0, 1] and the top level is
 * normalized so the four classes sum to one.
 */
TmaResult computeTma(const TmaCounters &counters, const TmaParams &params);

/** Multi-line human-readable report (the tma_tool output format). */
std::string formatTmaReport(const TmaResult &result,
                            const std::string &title,
                            bool second_level = true);

/** One-line summary "retiring=.. badspec=.. frontend=.. backend=..". */
std::string formatTmaLine(const TmaResult &result);

} // namespace icicle

#endif // ICICLE_TMA_TMA_HH
