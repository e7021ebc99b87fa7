/**
 * @file
 * Bounded model checker for the §IV-B counter architectures.
 *
 * Unlike the static analyzer (src/analysis/), which checks *declared*
 * configuration against model invariants, the prover drives the
 * counter state machines every CsrFile counter holds (pmu/counters.hh;
 * a copy is a snapshot) and explicitly enumerates every reachable
 * internal state under every input burst schedule, checking three
 * properties per architecture:
 *
 *  - PROVE-C1 (lossless counting): along every transition, the
 *    machine's counted() value advances by exactly the popcount of
 *    the asserted sources: Scalar's per-lane registers, AddWires'
 *    register, Distributed's principal plus in-flight residue. No
 *    event is ever lost or double-counted, in any reachable state.
 *  - PROVE-C2 (drain liveness): from every reachable state, the
 *    rotating one-hot arbiter clears every pending overflow latch
 *    within `sources` input-silent cycles, and the principal absorbs
 *    exactly one increment per latch.
 *  - PROVE-C3 (CSR coherence): driving a counter through the real
 *    CsrFile, no interleaving of event bursts with mcountinhibit
 *    writes and mhpmcounter clears loses or double-counts an event:
 *    inhibited counters hold their value exactly, and counter writes
 *    reset the *entire* architectural state including distributed
 *    residue. It reads the counter's register, so a Scalar selector
 *    mapping several sources adds Fig. 1's legacy OR: one per cycle.
 *
 * State spaces are finite because the unbounded accumulators
 * (principal, per-source totals) do not influence the dynamics: the
 * checker canonicalizes them to zero, leaving only the genuinely
 * stateful part (local counters, overflow latches, arbiter position,
 * inhibit bit). For large geometries the enumerated *input* alphabet
 * is capped to the first k sources, chosen so the state budget holds;
 * the cap is reported in the run statistics, never silent.
 *
 * Self-validation: runMutantSuite() re-runs the prover against each
 * seeded bug in the mutant registry (pmu/mutants.hh) and reports
 * which rule flagged it. A checker release is only trusted when every
 * mutant is caught and the unmutated matrix is clean.
 */

#ifndef ICICLE_PROVE_PROVE_HH
#define ICICLE_PROVE_PROVE_HH

#include <string>
#include <vector>

#include "analysis/diagnostics.hh"
#include "pmu/counters.hh"
#include "pmu/event.hh"
#include "pmu/mutants.hh"

namespace icicle
{

/** Parameters for one counter-level (C1/C2) enumeration run. */
struct ArchProveOptions
{
    /** Event sources feeding the counter. */
    u32 sources = 4;
    /** Local counter bits (Distributed); 0 = paper ceil(log2(s)). */
    u32 localWidth = 0;
    /** Maximum BFS depth from the reset state. */
    u32 horizon = 32;
    /**
     * Enumerate input masks over only the first k sources; 0 picks
     * the largest k whose worst-case state bound fits `maxStates`.
     */
    u32 activeSources = 0;
    /** Abort enumeration beyond this many distinct states. */
    u64 maxStates = 1ull << 19;
};

/** Parameters for one CSR-level (C3) enumeration run. */
struct CsrProveOptions
{
    CoreKind core = CoreKind::Boom;
    /** Lanes of the driven multi-source event (FetchBubbles). */
    u32 sources = 4;
    /** Maximum schedule length (action + burst per step). */
    u32 horizon = 16;
    u32 activeSources = 0;
    u64 maxStates = 1ull << 19;
};

/** Outcome statistics of one enumeration run. */
struct ProveStats
{
    u64 states = 0;      ///< distinct canonical states discovered
    u64 transitions = 0; ///< (state, input) edges checked
    u32 depth = 0;       ///< deepest state reached
    /** Reachable set fully closed within the horizon and budget? */
    bool closed = false;
    /** Effective enumerated-input source count (after budget cap). */
    u32 activeSources = 0;
};

/**
 * Exhaustively check PROVE-C1/C2 for one architecture and geometry.
 * Findings are appended to `report`; statistics returned.
 */
ProveStats proveCounterLossless(CounterArch arch,
                                const ArchProveOptions &options,
                                LintReport &report);

/**
 * Exhaustively check PROVE-C3: enumerate (inhibit-write | counter
 * write | no-op) x burst schedules against the real CsrFile.
 */
ProveStats proveCsrCoherence(CounterArch arch,
                             const CsrProveOptions &options,
                             LintReport &report);

/** One named run of the shipped verification matrix. */
struct ProveRun
{
    std::string name; ///< e.g. "distributed/s4w2" or "csr/boom/scalar"
    ProveStats stats;
    LintReport report;
};

/**
 * The shipped verification matrix: every architecture x the shipped
 * source-count geometries (Rocket single-lane through Giga BOOM's
 * 9-wide issue) for C1/C2, plus CSR coherence on both cores.
 */
std::vector<ProveRun> proveArchMatrix(u32 horizon = 32);

/** Verdict for one seeded bug. */
struct MutantResult
{
    MutantInfo info{};
    bool caught = false;          ///< any Error finding at all
    bool expectedRuleHit = false; ///< the registered rule fired
    u64 findings = 0;
    std::string firstFinding;     ///< "RULE: message" witness
};

/**
 * Activate each registry mutant in turn and re-run a reduced matrix.
 * Requires a build with -DICICLE_MUTANTS=ON (fatal otherwise).
 */
std::vector<MutantResult> runMutantSuite(u32 horizon = 32);

} // namespace icicle

#endif // ICICLE_PROVE_PROVE_HH
