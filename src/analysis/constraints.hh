/**
 * @file
 * icicle-refute: static derivation of model-implied counter
 * constraints.
 *
 * The paper validates the PMU by spot-checking TMA shapes on known
 * workloads; this pass goes further and asks what the *model itself*
 * guarantees about any counter reading. Three inputs are walked, all
 * static:
 *
 *  - the event-bus wiring (EventBus source declarations + Table I
 *    support matrix): every event asserts at most `sources` bits per
 *    cycle, so its delta is bounded by sources * delta(cycles)
 *    (PROVE-R1 width bounds);
 *  - the pipeline gating structure: an event raised only inside
 *    another event's raise site can never out-count its gate
 *    (PROVE-R2 dominance), and Rocket's retire-class decoder raises
 *    exactly one class per retirement, so the classes *partition*
 *    instret (PROVE-R3 conservation);
 *  - the TMA formula DAG (tma/formula.hh): interval evaluation over
 *    the admissible counter domain bounds every root, and the DAG's
 *    own node structure (min-with-parent, clamped parent-minus-child,
 *    clamped sums over a shared denominator, shared normalization
 *    denominator) yields the hierarchy identities (PROVE-R4 domain
 *    constraints).
 *
 * Every constraint carries provenance — the wiring edge, raise-site
 * gating, or formula node that implies it — so a refutation report
 * can show the full derivation chain, in the spirit of CounterPoint's
 * counter-based refutation methodology (PAPERS.md).
 *
 * The REF-* lint family checks the derived set itself for static
 * satisfiability (a config whose constraints cannot all hold is
 * mis-wired) and runs at Session construction via lintCore().
 *
 * The runtime half — litmus workloads and the PROVE-R checker that
 * evaluates these constraints against measured deltas — lives in
 * src/workloads/litmus.hh and src/prove/refute.hh.
 */

#ifndef ICICLE_ANALYSIS_CONSTRAINTS_HH
#define ICICLE_ANALYSIS_CONSTRAINTS_HH

#include <array>
#include <string>
#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/interval.hh"
#include "core/core.hh"
#include "pmu/event.hh"
#include "tma/formula.hh"

namespace icicle
{

/** What kind of model fact a constraint encodes. */
enum class ConstraintKind : u8
{
    WidthBound, ///< delta(e) <= sources(e) * delta(cycles)
    Dominance,  ///< gated event can't out-count its gate
    Partition,  ///< disjoint classes partition their parent event
    TmaDomain,  ///< TMA root bound / hierarchy identity
};

const char *constraintKindName(ConstraintKind kind);

/** Relation of the linear form to zero. */
enum class ConstraintOp : u8
{
    GeZero, ///< sum(coeff * delta) + constant >= 0
    EqZero, ///< sum(coeff * delta) + constant == 0
};

/** One signed term of a linear counter constraint. */
struct LinearTerm
{
    EventId event;
    i64 coeff;
};

/**
 * A linear inequality over end-of-run event deltas:
 *   sum_i coeff_i * delta(event_i) + constant  (>= | ==)  0.
 * Coefficients are small (|coeff| <= kMaxSources) and deltas fit in
 * 48 bits, so i64 evaluation cannot overflow.
 */
struct LinearConstraint
{
    /** Stable id, e.g. "R1.width.fetch-bubbles". */
    std::string id;
    /** PROVE-R rule family ("PROVE-R1" .. "PROVE-R3"). */
    const char *rule = "";
    ConstraintKind kind = ConstraintKind::WidthBound;
    ConstraintOp op = ConstraintOp::GeZero;
    std::vector<LinearTerm> terms;
    i64 constant = 0;
    /**
     * Holds only once the pipeline has drained (e.g. issued >=
     * retired needs no uops in flight); the checker must run the
     * program to completion before evaluating it.
     */
    bool endOfRunOnly = false;
    /** Human-readable inequality ("delta(instret) <= delta(cycles)"). */
    std::string text;
    /** Derivation chain: which wiring edge / raise site implies it. */
    std::string provenance;
};

/** Left-hand-side value of the linear form for measured deltas. */
i64 evaluateLinear(const LinearConstraint &c,
                   const std::array<u64, kNumEvents> &deltas);

/** Does the relation hold for the measured deltas? */
bool satisfiesLinear(const LinearConstraint &c,
                     const std::array<u64, kNumEvents> &deltas);

/** Check applied to evaluated TMA roots. */
enum class TmaCheckOp : u8
{
    /** tmaRootValue(subject) must lie within bounds (+- tolerance). */
    InInterval,
    /** subject == sum(parts) within tolerance. */
    PartsSumToWhole,
    /** subject <= sum(parts) + tolerance. */
    DominatedBy,
    /** sum(parts) == 1 within tolerance (top-level conservation). */
    SumIsOne,
};

/** One constraint on the evaluated TMA breakdown (PROVE-R4). */
struct TmaConstraint
{
    std::string id; ///< e.g. "R4.interval.frontend"
    const char *rule = "PROVE-R4";
    TmaCheckOp op = TmaCheckOp::InInterval;
    TmaRoot subject = TmaRoot::Retiring;
    std::vector<TmaRoot> parts;
    Interval bounds{0.0, 1.0};
    double tolerance = 1e-9;
    std::string text;
    std::string provenance;
};

/**
 * Check one TMA constraint against an evaluated breakdown. On
 * violation returns false and stores how far outside the relation the
 * value fell in `*violation` (when non-null). A non-finite value the
 * constraint reads (NaN, infinity) satisfies no relation: it is a
 * violation by an infinite amount. This is the one PROVE-R4
 * evaluator: the TMA lint family, PROVE-T5 and `refute` all call it.
 */
bool satisfiesTma(const TmaConstraint &c, const TmaResult &result,
                  double *violation = nullptr);

/**
 * The PROVE-R4 set the formula DAG implies for `params`: W_C and M_rl
 * shape the admissible domain, and `paperLiteralNfr` selects the DAG.
 * One interval bound per root (ipc's from the domain's retire bound
 * W_C * cycles), then the hierarchy identities read off the DAG's
 * structure. Deterministic for given params.
 */
std::vector<TmaConstraint> deriveTmaConstraints(const TmaParams &params);

/** The full derived ruleset for one core configuration. */
struct ConstraintSet
{
    CoreKind kind = CoreKind::Rocket;
    /** Core configuration name the set was derived for. */
    std::string subject;
    std::vector<LinearConstraint> linear;
    std::vector<TmaConstraint> tma;

    u32
    size() const
    {
        return static_cast<u32>(linear.size() + tma.size());
    }

    /** Human-readable listing, one constraint per line + provenance. */
    std::string format(bool with_provenance = true) const;
    /** Machine-readable listing for CI consumption. */
    std::string toJson() const;
};

/**
 * Derive every model-implied constraint for a constructed core. The
 * result is deterministic for a given configuration (fixed event
 * order, fixed structural tables, no sampling).
 */
ConstraintSet deriveConstraints(const Core &core);

/**
 * REF-*: static satisfiability audit of the derived set; runs at
 * Session construction through lintCore(). Rules:
 *
 *  REF-001 (Error) derivation degenerates: fewer constraints than the
 *          structural floor — the wiring/model inputs are broken.
 *  REF-002 (Error) a width bound is unrepresentable: an event
 *          declares zero sources or more than the bus mask can carry
 *          (kMaxSources), so delta(e) <= sources * cycles cannot be
 *          evaluated soundly.
 *  REF-003 (Error) a TMA fraction root's interval over the admissible
 *          domain escapes [0, 1] (or is empty): the formula DAG
 *          violates its own codomain.
 *  REF-004 (Error) a partition is statically unsatisfiable: the
 *          member classes' combined per-cycle capacity is below the
 *          whole event's, so equality must fail at saturation.
 */
LintReport lintConstraints(const Core &core);

} // namespace icicle

#endif // ICICLE_ANALYSIS_CONSTRAINTS_HH
