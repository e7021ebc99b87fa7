/**
 * @file
 * icicle-lint: static model-invariant analyzer (run *before* a
 * simulation, at Session construction and PerfHarness configuration
 * time, and standalone via tools/icicle-lint).
 *
 * Four rule families, each motivated by a way the paper's
 * counter-trustworthiness argument can silently break:
 *
 *  EVT-* event-wiring audit: every event a core advertises must have
 *        a source count consistent with its issue/commit widths
 *        (W_I, W_C); per-cycle condition events must not be driven by
 *        more than one wire; reserved TLB events must not be counted.
 *  CSR-* config validation: event-set id in range, event mask inside
 *        the selector's mask field and the set's population, lane
 *        select within the event's lane count, no event mapped to two
 *        counters in one configuration, inhibit state coherent.
 *  CNT-* counter-architecture bounds: DistributedCounters must not be
 *        able to *lose* overflow bits (only defer them), its
 *        worst-case end-of-run undercount is computed and bounded,
 *        Scalar configurations must fit the hardware-counter budget,
 *        AddWires chain lengths are checked against a timing budget.
 *  TMA-* conservation lint: interval analysis plus exhaustive
 *        deterministic sampling over the admissible counter domain
 *        proving the Table II classes sum to 1 +- epsilon, each child
 *        set sums to its parent, and no class goes negative. TMA-005
 *        records the paper's printed M_nf_r formula contradiction.
 *
 * Rule ids, severities, and paper justifications are tabulated in
 * DESIGN.md §"Static model checking".
 */

#ifndef ICICLE_ANALYSIS_LINT_HH
#define ICICLE_ANALYSIS_LINT_HH

#include <functional>
#include <vector>

#include "analysis/diagnostics.hh"
#include "core/core.hh"
#include "pmu/csr.hh"
#include "pmu/event.hh"
#include "tma/tma.hh"

namespace icicle
{

/** Tunables for the lint passes. */
struct LintOptions
{
    /**
     * CNT-003: warn when a Distributed counter's worst-case end-of-run
     * undercount (sources * 2^localWidth) exceeds this many events.
     */
    u64 undercountWarnThreshold = 1u << 10;
    /**
     * CNT-004: warn when an AddWires adder chain is longer than this
     * (the §V-C longest-path data shows delay growing with sources;
     * GigaBOOM's 9-lane chain of 8 adders is the largest shipped).
     */
    u32 addWiresChainWarnLength = 8;
    /** TMA-00x: conservation slack. */
    double epsilon = 1e-6;
    /** TMA-00x: deterministic samples of the counter domain. */
    u32 tmaSamples = 512;
    /** Seed for the sampling PRNG (deterministic across runs). */
    u64 seed = 0x1C1C1Eull;
};

/**
 * A TMA model under lint: maps counters to a breakdown. Defaults to
 * the production computeTma(); tests inject broken models to confirm
 * the lint rejects them.
 */
using TmaModelFn =
    std::function<TmaResult(const TmaCounters &, const TmaParams &)>;

// ---- rule families ---------------------------------------------------

/** EVT-*: audit a core's event-bus wiring against its geometry. */
LintReport lintEventWiring(const Core &core,
                           const LintOptions &opts = {});

/**
 * CSR-*: validate one raw mhpmevent selector value against a core's
 * event layout and bus geometry. `index` is the hpm counter index
 * (0..28), used only for the diagnostic subject.
 */
LintReport lintSelector(CoreKind kind, const EventBus &bus, u32 index,
                        u64 selector, const LintOptions &opts = {});

/**
 * CSR-*: validate a whole programmed CSR file — every selector plus
 * the cross-counter rules (duplicate event mapping CSR-004, inhibit
 * coherence CSR-005).
 */
LintReport lintCsrFile(const CsrFile &csrs, const EventBus &bus,
                       const LintOptions &opts = {});

/**
 * CNT-002/CNT-003: bounds for one DistributedCounters instance with
 * `sources` local counters of `local_width` bits each drained by a
 * one-hot arbiter rotating over all sources.
 */
LintReport lintDistributedBounds(u32 sources, u32 local_width,
                                 const char *subject,
                                 const LintOptions &opts = {});

/**
 * CNT-*: audit the counter architecture a core was configured with,
 * over every multi-source event it advertises.
 */
LintReport lintCounterArch(const Core &core,
                           const LintOptions &opts = {});

/**
 * CNT-001 (+ EVT-004): check a PerfHarness event request against the
 * hardware-counter budget for the core's counter architecture, before
 * any counter is programmed.
 */
LintReport lintPerfRequest(const Core &core,
                           const std::vector<EventId> &events,
                           const LintOptions &opts = {});

/**
 * TMA-*: prove the conservation invariants of a TMA model for the
 * given core parameters. The interval pass covers the reference
 * Table II formula structure; the sampling pass exercises `model`
 * over a deterministic sweep of the admissible counter domain and
 * reports the first counterexample per rule.
 */
LintReport lintTmaModel(const TmaParams &params,
                        const LintOptions &opts = {},
                        const TmaModelFn &model = {});

/** Every family for one constructed core (the Session entry point). */
LintReport lintCore(const Core &core, const LintOptions &opts = {});

// ---- enforcement gate ------------------------------------------------

/**
 * Whether Session construction and PerfHarness configuration run the
 * linter and fail fast (fatal()) on Error-severity findings. Defaults
 * to enabled; embedders that intentionally model broken hardware can
 * opt out.
 */
void setLintOnConstruct(bool enabled);
bool lintOnConstruct();

/** RAII opt-out used by tests that construct invalid configs. */
class ScopedLintDisable
{
  public:
    ScopedLintDisable() : previous(lintOnConstruct())
    { setLintOnConstruct(false); }
    ~ScopedLintDisable() { setLintOnConstruct(previous); }
    ScopedLintDisable(const ScopedLintDisable &) = delete;
    ScopedLintDisable &operator=(const ScopedLintDisable &) = delete;

  private:
    bool previous;
};

/**
 * fatal() with the formatted report when it contains Errors and the
 * construction gate is enabled; otherwise returns the report.
 */
const LintReport &enforceLint(const LintReport &report,
                              const char *context);

} // namespace icicle

#endif // ICICLE_ANALYSIS_LINT_HH
