#include "prove/prove.hh"

#include <bit>
#include <deque>
#include <sstream>
#include <type_traits>
#include <unordered_set>

#include "common/logging.hh"
#include "pmu/csr.hh"
#include "prove/refute.hh"

namespace icicle
{

namespace
{

/** Max findings recorded per rule per run before suppression. */
constexpr u32 kMaxFindingsPerRule = 4;

/**
 * Largest k <= sources such that the worst-case canonical state bound
 * (wrap^k local values x 2^k latches x sources arbiter positions)
 * fits the state budget. Always at least 1.
 */
u32
budgetActiveSources(u32 sources, u64 wrap, u64 max_states)
{
    u32 k = 1;
    while (k < sources) {
        u64 bound = sources;
        bool overflowed = false;
        for (u32 i = 0; i < k + 1; i++) {
            if (bound > max_states / (wrap * 2)) {
                overflowed = true;
                break;
            }
            bound *= wrap * 2;
        }
        if (overflowed || bound > max_states)
            break;
        k++;
    }
    return k;
}

/** Rate-limited report append; returns false once the rule is full. */
class FindingSink
{
  public:
    FindingSink(LintReport &report, std::string subject)
        : out(report), subj(std::move(subject))
    {}

    void
    add(const char *rule, const std::string &message)
    {
        u32 &n = (std::string(rule) == "PROVE-C1")   ? c1
                 : (std::string(rule) == "PROVE-C2") ? c2
                                                     : c3;
        n++;
        if (n <= kMaxFindingsPerRule) {
            out.add(rule, Severity::Error, message, subj);
        } else if (n == kMaxFindingsPerRule + 1) {
            out.add(rule, Severity::Warn,
                    "further violations of this rule suppressed "
                    "(witnesses above are representative)",
                    subj);
        }
    }

  private:
    LintReport &out;
    std::string subj;
    u32 c1 = 0, c2 = 0, c3 = 0;
};

std::string
formatState(const DistributedMachine &state)
{
    std::ostringstream os;
    os << "local=[";
    for (u64 i = 0; i < state.local.size(); i++)
        os << (i ? "," : "") << state.local[i];
    os << "] ovf=[";
    for (u32 i = 0; i < state.sources(); i++)
        os << (i ? "," : "") << (state.overflow >> i & 1);
    os << "] sel=" << state.select;
    return os.str();
}

/** Scalar and AddWires carry no control state besides accumulators. */
std::string formatState(const ScalarMachine &) { return "reset"; }
std::string formatState(const AddWiresMachine &) { return "reset"; }

/** Visited-set key of a canonical (accumulator-free) state. */
std::string
stateKey(const DistributedMachine &state)
{
    std::string key;
    key.reserve(state.local.size() * 2 + 9);
    for (u64 v : state.local) {
        key.push_back(static_cast<char>(v & 0xff));
        key.push_back(static_cast<char>((v >> 8) & 0xff));
    }
    for (u32 i = 0; i < 64; i += 8)
        key.push_back(static_cast<char>(state.overflow >> i));
    key.push_back(static_cast<char>(state.select));
    return key;
}

std::string stateKey(const ScalarMachine &) { return {}; }
std::string stateKey(const AddWiresMachine &) { return {}; }

/**
 * PROVE-C2 probe: from `state`, run `sources` input-silent cycles and
 * require every overflow latch to drain into the principal.
 */
void
drainProbe(const DistributedMachine &state, FindingSink &sink)
{
    DistributedMachine after = state;
    const u32 latched = static_cast<u32>(std::popcount(state.overflow));
    for (u32 i = 0; i < state.sources(); i++)
        after.step(0);
    const u32 still = static_cast<u32>(std::popcount(after.overflow));
    if (still > 0) {
        std::ostringstream os;
        os << still << " overflow latch(es) still pending after "
           << state.sources() << " silent cycles from state "
           << formatState(state)
           << " -- the arbiter is not live for every source";
        sink.add("PROVE-C2", os.str());
        return;
    }
    if (after.principal != state.principal + latched) {
        std::ostringstream os;
        os << "draining " << latched << " latch(es) from state "
           << formatState(state) << " moved the principal by "
           << (after.principal - state.principal)
           << " (expected exactly one increment per latch)";
        sink.add("PROVE-C2", os.str());
    }
}

/**
 * BFS over every canonical state reachable from `init` under the 2^k
 * burst masks, checking PROVE-C1 on each transition: counted() moves
 * by exactly popcount(mask). Accumulators never drive the dynamics,
 * so they are zeroed in each visited state. Scalar and AddWires have
 * one canonical state; Distributed also gets the PROVE-C2 probe.
 */
template <typename Machine>
ProveStats
proveMachine(const Machine &init, u32 k, const ArchProveOptions &options,
             FindingSink &sink)
{
    ProveStats stats;
    stats.activeSources = k;
    const u32 num_masks = 1u << k;

    std::unordered_set<std::string> visited;
    std::deque<std::pair<Machine, u32>> frontier;
    visited.insert(stateKey(init));
    frontier.emplace_back(init, 0);
    stats.states = 1;
    stats.closed = true;

    while (!frontier.empty()) {
        auto [state, depth] = std::move(frontier.front());
        frontier.pop_front();
        stats.depth = std::max(stats.depth, depth);

        if constexpr (std::is_same_v<Machine, DistributedMachine>)
            drainProbe(state, sink);

        if (depth >= options.horizon) {
            stats.closed = false;
            continue;
        }

        for (u32 mask = 0; mask < num_masks; mask++) {
            Machine next = state;
            const u64 before = next.counted();
            next.step(mask);
            const u64 after = next.counted();
            const u64 expected = static_cast<u64>(std::popcount(mask));
            stats.transitions++;
            if (after != before + expected) {
                std::ostringstream os;
                os << "counted value moved by "
                   << static_cast<i64>(after - before)
                   << " for a burst of " << expected
                   << " event(s) (mask 0x" << std::hex << mask
                   << std::dec << ") from state " << formatState(state);
                sink.add("PROVE-C1", os.str());
            }
            next.clearAccumulators();
            if (visited.insert(stateKey(next)).second) {
                if (visited.size() > options.maxStates) {
                    stats.closed = false;
                    frontier.clear();
                    break;
                }
                stats.states++;
                frontier.emplace_back(std::move(next), depth + 1);
            }
        }
    }
    return stats;
}

} // namespace

ProveStats
proveCounterLossless(CounterArch arch, const ArchProveOptions &options,
                     LintReport &report)
{
    const u32 sources = options.sources;
    ICICLE_ASSERT(sources >= 1 && sources <= kMaxSources,
                  "bad source count");
    std::ostringstream subj;
    subj << counterArchName(arch) << "/s" << sources;
    if (arch != CounterArch::Distributed) {
        FindingSink sink(report, subj.str());
        const u32 k = std::min(sources, 14u);
        if (arch == CounterArch::Scalar)
            return proveMachine(ScalarMachine(sources), k, options, sink);
        return proveMachine(AddWiresMachine{}, k, options, sink);
    }

    const DistributedMachine init(sources, options.localWidth);
    subj << "w" << init.width;
    FindingSink sink(report, subj.str());
    const u32 k =
        options.activeSources
            ? std::min(options.activeSources, sources)
            : budgetActiveSources(sources, init.wrap(), options.maxStates);
    return proveMachine(init, k, options, sink);
}

// ------------------------------------------------------------ PROVE-C3

namespace
{

/** CSR actions interleaved with event bursts in the C3 schedules. */
enum class CsrAction : u8
{
    None = 0,
    InhibitOn,
    InhibitOff,
    WriteCounterZero,
    NumActions
};

const char *
actionName(CsrAction action)
{
    switch (action) {
      case CsrAction::None: return "none";
      case CsrAction::InhibitOn: return "inhibit-on";
      case CsrAction::InhibitOff: return "inhibit-off";
      case CsrAction::WriteCounterZero: return "write-counter-0";
      default: return "?";
    }
}

/** Canonical C3 state: counter dynamics plus the inhibit bit. */
struct CsrState
{
    CounterMachine hpm;
    bool inhibited = false;
};

std::string
csrStateKey(const CsrState &state)
{
    std::string key = std::visit(
        [](const auto &machine) { return stateKey(machine); }, state.hpm);
    key.push_back(state.inhibited ? 1 : 0);
    return key;
}

std::string
formatCsrState(const CsrState &state)
{
    const std::string counter = std::visit(
        [](const auto &machine) { return formatState(machine); },
        state.hpm);
    return counter + (state.inhibited ? " inhibited" : " running");
}

/**
 * What the counter's register should add for a burst, per §IV-B. A
 * Scalar selector that maps several sources keeps Fig. 1's legacy
 * OR: at most one count per cycle however many sources fire (its
 * per-lane registers, which sum exactly, are PROVE-C1's subject).
 */
u64
expectedIncrement(CounterArch arch, u32 mask)
{
    if (arch == CounterArch::Scalar)
        return mask != 0 ? 1 : 0;
    return static_cast<u64>(std::popcount(mask));
}

} // namespace

ProveStats
proveCsrCoherence(CounterArch arch, const CsrProveOptions &options,
                  LintReport &report)
{
    const u32 sources = options.sources;
    ICICLE_ASSERT(sources >= 1 && sources <= kMaxSources,
                  "bad source count");

    std::ostringstream subj;
    subj << "csr/"
         << (options.core == CoreKind::Rocket ? "rocket" : "boom")
         << "/" << counterArchName(arch) << "/s" << sources;
    FindingSink sink(report, subj.str());

    EventBus bus;
    bus.setNumSources(EventId::FetchBubbles, sources);
    CsrFile csrs(options.core, arch, &bus);
    // FetchBubbles sits at mask bit 4 of the BOOM TMA set, so the
    // schedule also exercises selector decoding above the low nibble.
    csrs.programEvent(0, EventId::FetchBubbles);
    csrs.setInhibit(false);

    ProveStats stats;
    const u64 wrap = 1ull << localWidthFor(sources);
    stats.activeSources =
        options.activeSources
            ? std::min(options.activeSources, sources)
            : (arch == CounterArch::Distributed
                   ? budgetActiveSources(sources, wrap,
                                         options.maxStates / 2)
                   : std::min(sources, 12u));
    const u32 k = stats.activeSources;
    const u32 num_masks = 1u << k;
    constexpr u32 num_actions =
        static_cast<u32>(CsrAction::NumActions);

    const CsrState init{csrs.snapshotHpm(0), false};

    std::unordered_set<std::string> visited;
    std::deque<std::pair<CsrState, u32>> frontier;
    visited.insert(csrStateKey(init));
    frontier.emplace_back(init, 0);
    stats.states = 1;
    stats.closed = true;

    while (!frontier.empty()) {
        auto [state, depth] = std::move(frontier.front());
        frontier.pop_front();
        stats.depth = std::max(stats.depth, depth);
        if (depth >= options.horizon) {
            stats.closed = false;
            continue;
        }

        for (u32 a = 0; a < num_actions; a++) {
            const CsrAction action = static_cast<CsrAction>(a);
            for (u32 mask = 0; mask < num_masks; mask++) {
                csrs.restoreHpm(0, state.hpm);
                csrs.writeCsr(csr::mcountinhibit,
                              state.inhibited ? ~0ull : 0ull);

                bool inhibited = state.inhibited;
                const u64 at_entry = csrs.hpmCorrected(0);
                switch (action) {
                  case CsrAction::InhibitOn:
                    csrs.writeCsr(csr::mcountinhibit, ~0ull);
                    inhibited = true;
                    break;
                  case CsrAction::InhibitOff:
                    csrs.writeCsr(csr::mcountinhibit, 0ull);
                    inhibited = false;
                    break;
                  case CsrAction::WriteCounterZero:
                    csrs.writeCsr(csr::mhpmcounter3, 0);
                    break;
                  default: break;
                }

                if (action == CsrAction::WriteCounterZero) {
                    const u64 v = csrs.hpmCorrected(0);
                    if (v != 0) {
                        std::ostringstream os;
                        os << "writing mhpmcounter=0 left a corrected "
                              "value of "
                           << v << " (stale residue) from state "
                           << formatCsrState(state);
                        sink.add("PROVE-C3", os.str());
                    }
                } else if (csrs.hpmCorrected(0) != at_entry) {
                    std::ostringstream os;
                    os << "CSR action '" << actionName(action)
                       << "' changed the corrected value by "
                       << static_cast<i64>(csrs.hpmCorrected(0) -
                                           at_entry)
                       << " from state " << formatCsrState(state);
                    sink.add("PROVE-C3", os.str());
                }

                const u64 before = csrs.hpmCorrected(0);
                csrs.stepHpm(0, mask);
                const u64 after = csrs.hpmCorrected(0);
                const u64 expected =
                    inhibited ? 0 : expectedIncrement(arch, mask);
                stats.transitions++;
                if (after != before + expected) {
                    std::ostringstream os;
                    os << "corrected value moved by "
                       << static_cast<i64>(after - before)
                       << " (expected " << expected
                       << ") for burst mask 0x" << std::hex << mask
                       << std::dec << " after action '"
                       << actionName(action) << "' from state "
                       << formatCsrState(state)
                       << (inhibited ? " [counter inhibited]" : "");
                    sink.add("PROVE-C3", os.str());
                }

                CsrState next{csrs.snapshotHpm(0), inhibited};
                // Canonical: accumulators don't drive the dynamics.
                std::visit([](auto &machine) { machine.clearAccumulators(); },
                           next.hpm);
                if (visited.insert(csrStateKey(next)).second) {
                    if (visited.size() > options.maxStates) {
                        stats.closed = false;
                        frontier.clear();
                        a = num_actions;
                        break;
                    }
                    stats.states++;
                    frontier.emplace_back(std::move(next), depth + 1);
                }
            }
        }
    }
    return stats;
}

// ------------------------------------------------------------- matrix

std::vector<ProveRun>
proveArchMatrix(u32 horizon)
{
    // Rocket single-source events through Giga BOOM's 9-wide issue
    // (Table V geometries), plus the intermediate decode widths.
    static const u32 kGeometries[] = {1, 2, 3, 4, 5, 8, 9};
    static const CounterArch kArchs[] = {CounterArch::Scalar,
                                         CounterArch::AddWires,
                                         CounterArch::Distributed};

    std::vector<ProveRun> runs;
    for (CounterArch arch : kArchs) {
        for (u32 sources : kGeometries) {
            ProveRun run;
            ArchProveOptions options;
            options.sources = sources;
            options.horizon = horizon;
            run.stats =
                proveCounterLossless(arch, options, run.report);
            std::ostringstream name;
            name << counterArchName(arch) << "/s" << sources;
            if (arch == CounterArch::Distributed)
                name << "w" << localWidthFor(sources);
            run.name = name.str();
            runs.push_back(std::move(run));
        }
    }
    for (CounterArch arch : kArchs) {
        for (CoreKind core : {CoreKind::Rocket, CoreKind::Boom}) {
            ProveRun run;
            CsrProveOptions options;
            options.core = core;
            options.sources = core == CoreKind::Rocket ? 1 : 4;
            options.horizon = std::min(horizon, 16u);
            run.stats = proveCsrCoherence(arch, options, run.report);
            std::ostringstream name;
            name << "csr/"
                 << (core == CoreKind::Rocket ? "rocket" : "boom")
                 << "/" << counterArchName(arch) << "/s"
                 << options.sources;
            run.name = name.str();
            runs.push_back(std::move(run));
        }
    }
    return runs;
}

// ------------------------------------------------------------- mutants

std::vector<MutantResult>
runMutantSuite(u32 horizon)
{
    if (!mutantsCompiledIn()) {
        fatal("mutant self-validation requires a build with "
              "-DICICLE_MUTANTS=ON");
    }

    std::vector<MutantResult> results;
    for (const MutantInfo &info : mutantRegistry()) {
        MutantResult result;
        result.info = info;

        ScopedMutant activate(info.id);

        // Event-bus mutants break the *wiring*, not the counters: the
        // counter matrix would come back clean because the counters
        // faithfully count the wrong wires. They are checked by the
        // PROVE-R litmus refuter instead.
        if (std::string(info.expectedRule).rfind("PROVE-R", 0) == 0) {
            results.push_back(refuteMutantCheck(info));
            continue;
        }

        LintReport report;

        // Reduced matrix: a 4-source geometry exposes every seeded
        // bug (the arbiter double-advance needs an even source count)
        // and keeps the suite fast enough for CI.
        for (CounterArch arch :
             {CounterArch::Scalar, CounterArch::AddWires,
              CounterArch::Distributed}) {
            ArchProveOptions arch_options;
            arch_options.sources = 4;
            arch_options.horizon = horizon;
            proveCounterLossless(arch, arch_options, report);

            CsrProveOptions csr_options;
            csr_options.core = CoreKind::Boom;
            csr_options.sources = 4;
            csr_options.horizon = std::min(horizon, 12u);
            proveCsrCoherence(arch, csr_options, report);
        }

        result.findings = report.errorCount();
        result.caught = result.findings > 0;
        result.expectedRuleHit = report.hasRule(info.expectedRule);
        for (const Diagnostic &diag : report.diagnostics()) {
            if (diag.severity != Severity::Error)
                continue;
            result.firstFinding = diag.rule + ": " + diag.message;
            break;
        }
        results.push_back(std::move(result));
    }
    return results;
}

} // namespace icicle
