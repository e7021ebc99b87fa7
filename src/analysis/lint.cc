#include "analysis/lint.hh"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>

#include "common/logging.hh"

namespace icicle
{

namespace
{

bool g_lintOnConstruct = true;

/** Deterministic 64-bit LCG (Knuth MMIX constants). */
struct LintRng
{
    u64 state;
    explicit LintRng(u64 seed) : state(seed) {}

    u64
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 16;
    }

    /** Uniform in [0, bound] inclusive. */
    u64 below(u64 bound) { return next() % (bound + 1); }
};

const char *
coreKindName(CoreKind kind)
{
    return kind == CoreKind::Rocket ? "Rocket" : "BOOM";
}

/** Is this one of the reserved TLB events (paper §IV-A future work)? */
bool
isReservedTlbEvent(EventId id)
{
    return id == EventId::ITlbMiss || id == EventId::DTlbMiss ||
           id == EventId::L2TlbMiss;
}

/**
 * How many sources an event must have on this core: per-slot events
 * scale with the issue width W_I or commit width W_C; every other
 * event is a single per-cycle condition wire.
 */
u32
expectedSources(const Core &core, EventId id)
{
    if (core.kind() == CoreKind::Rocket)
        return 1;
    switch (id) {
      case EventId::UopsIssued:
        return core.issueWidth();
      case EventId::UopsRetired:
      case EventId::InstRetired:
      case EventId::FetchBubbles:
      case EventId::DCacheBlocked:
      case EventId::DCacheBlockedDram:
        return core.coreWidth();
      default:
        return 1;
    }
}

std::string
hpmSubject(u32 index)
{
    std::ostringstream os;
    os << "mhpmevent" << (index + 3);
    return os.str();
}

} // namespace

// ==================================================== EVT-* (wiring)

LintReport
lintEventWiring(const Core &core)
{
    LintReport report;
    const EventBus &bus = core.bus();

    for (u32 i = 0; i < kNumEvents; i++) {
        const EventId id = static_cast<EventId>(i);
        const u32 sources = bus.sourcesOf(id);
        const EventInfo info = eventInfo(core.kind(), id);

        if (sources == 0 || sources > kMaxSources) {
            std::ostringstream os;
            os << "declares " << sources
               << " sources; must be in [1, " << kMaxSources << "]";
            report.add("EVT-001", Severity::Error, os.str(), info.name);
            continue;
        }

        if (!info.supported) {
            if (sources > 1) {
                std::ostringstream os;
                os << "not supported on " << coreKindName(core.kind())
                   << " but wired with " << sources << " sources";
                report.add("EVT-003", Severity::Warn, os.str(),
                           info.name);
            }
            continue;
        }

        const u32 expected = expectedSources(core, id);
        if (expected > 1 && sources != expected) {
            std::ostringstream os;
            os << "per-slot event declares " << sources
               << " sources but the core geometry (W_I="
               << core.issueWidth() << ", W_C=" << core.coreWidth()
               << ") requires " << expected;
            report.add("EVT-002", Severity::Error, os.str(), info.name);
        } else if (expected == 1 && sources > 1) {
            std::ostringstream os;
            os << "per-cycle condition event driven by " << sources
               << " wires: the same condition would be counted "
               << sources << " times per cycle";
            report.add("EVT-005", Severity::Error, os.str(), info.name);
        }
    }
    return report;
}

// =================================================== CSR-* (configs)

LintReport
lintSelector(CoreKind kind, const EventBus &bus, u32 index,
             u64 selector)
{
    LintReport report;
    if (selector == 0)
        return report;
    const std::string subject = hpmSubject(index);

    const u32 set_id = static_cast<u32>(selector & 0xff);
    const u64 mask = (selector >> 8) & ((1ull << 48) - 1);
    const u32 lane_plus_one = static_cast<u32>(selector >> 56) & 0x3f;

    if (selector >> 62) {
        report.add("CSR-002", Severity::Warn,
                   "bits 62-63 above the lane-select field are "
                   "reserved and ignored by hardware",
                   subject);
    }

    if (set_id >= static_cast<u32>(EventSetId::NumSets)) {
        std::ostringstream os;
        os << "event-set id " << set_id << " out of range [0, "
           << static_cast<u32>(EventSetId::NumSets) - 1
           << "]: counter will never count";
        report.add("CSR-001", Severity::Error, os.str(), subject);
        return report;
    }

    const std::vector<EventId> set_events =
        eventsInSet(kind, static_cast<EventSetId>(set_id));

    if (mask == 0) {
        report.add("CSR-002", Severity::Warn,
                   "selector programmed with an empty event mask: "
                   "counter will never count",
                   subject);
        return report;
    }

    for (u32 bit = 0; bit < 48; bit++) {
        if (!(mask & (1ull << bit)))
            continue;
        if (bit >= set_events.size()) {
            std::ostringstream os;
            os << "mask bit " << bit << " beyond event set " << set_id
               << " population (" << set_events.size()
               << " events): selected nothing";
            report.add("CSR-002", Severity::Error, os.str(), subject);
            continue;
        }
        const EventId event = set_events[bit];
        if (isReservedTlbEvent(event)) {
            std::ostringstream os;
            os << "counts reserved TLB event " << eventName(event)
               << ": TLB events are future work (paper "
               << "§IV-A) and their counts are not validated";
            report.add("EVT-004", Severity::Warn, os.str(), subject);
        }
        if (lane_plus_one != 0 &&
            lane_plus_one - 1 >= bus.sourcesOf(event)) {
            std::ostringstream os;
            os << "lane select " << (lane_plus_one - 1)
               << " out of range for " << eventName(event) << " ("
               << bus.sourcesOf(event)
               << " sources): counter will never count";
            report.add("CSR-003", Severity::Error, os.str(), subject);
        }
    }
    return report;
}

LintReport
lintCsrFile(const CsrFile &csrs, const EventBus &bus)
{
    LintReport report;
    const CoreKind kind = csrs.core();

    /** Per event: the lane selections (0 = all lanes) that count it. */
    std::map<EventId, std::vector<std::pair<u32, u32>>> watchers;
    u32 programmed = 0;
    u32 enabled = 0;
    const u64 inhibit = csrs.inhibitBits();

    for (u32 index = 0; index < csr::numHpm; index++) {
        const u64 selector = csrs.eventSelector(index);
        report.merge(lintSelector(kind, bus, index, selector));
        if (selector == 0)
            continue;
        programmed++;
        if (!(inhibit & (1ull << (index + 3))))
            enabled++;

        const u32 set_id = static_cast<u32>(selector & 0xff);
        if (set_id >= static_cast<u32>(EventSetId::NumSets))
            continue;
        const u64 mask = (selector >> 8) & ((1ull << 48) - 1);
        const u32 lane_plus_one =
            static_cast<u32>(selector >> 56) & 0x3f;
        const std::vector<EventId> set_events =
            eventsInSet(kind, static_cast<EventSetId>(set_id));
        for (u32 bit = 0; bit < set_events.size() && bit < 48; bit++) {
            if (mask & (1ull << bit)) {
                watchers[set_events[bit]].emplace_back(index,
                                                       lane_plus_one);
            }
        }
    }

    // CSR-004: one event double-counted by two counters. All-lane
    // mappings (lane 0) overlap everything; lane-specific mappings
    // only collide with the same lane.
    for (const auto &[event, list] : watchers) {
        if (list.size() < 2)
            continue;
        bool overlap = false;
        for (u64 a = 0; a < list.size() && !overlap; a++) {
            for (u64 b = a + 1; b < list.size(); b++) {
                if (list[a].second == 0 || list[b].second == 0 ||
                    list[a].second == list[b].second) {
                    overlap = true;
                    break;
                }
            }
        }
        if (overlap) {
            std::ostringstream os;
            os << "mapped to " << list.size()
               << " counters with overlapping lanes (";
            for (u64 i = 0; i < list.size(); i++) {
                os << (i ? ", " : "") << hpmSubject(list[i].first);
            }
            os << "): double-counted and wastes the counter budget";
            report.add("CSR-004", Severity::Error, os.str(),
                       eventName(event));
        }
    }

    // CSR-005: inhibit-bit coherence.
    if (enabled > 0 && (inhibit & 1ull)) {
        report.add("CSR-005", Severity::Warn,
                   "event counters enabled while mcycle is inhibited: "
                   "TMA slot ratios have no cycle reference",
                   "mcountinhibit");
    }
    if (enabled > 0 && enabled < programmed) {
        std::ostringstream os;
        os << enabled << " of " << programmed
           << " programmed counters enabled: a partially inhibited "
           << "group yields incoherent event totals";
        report.add("CSR-005", Severity::Warn, os.str(),
                   "mcountinhibit");
    }
    return report;
}

// ============================================ CNT-* (counter bounds)

/** CNT-003: the worst-case undercount, in events, that still passes. */
constexpr u64 kUndercountWarnEvents = 1u << 10;

LintReport
lintDistributedBounds(u32 sources, u32 local_width, const char *subject)
{
    LintReport report;
    if (sources == 0 || local_width == 0 || local_width >= 64)
        return report;
    const u64 wrap = 1ull << local_width;

    // A local counter wraps at most once every 2^width asserted
    // cycles; the one-hot arbiter revisits it every `sources` cycles.
    // Below localWidthFor(sources), i.e. with 2^width < sources, a
    // saturating burst wraps the counter again before its overflow
    // latch is drained: the latch saturates and 2^width events are
    // *lost*, not deferred.
    if (local_width < localWidthFor(sources)) {
        std::ostringstream os;
        os << "local width " << local_width << " too small for "
           << sources << " sources: 2^" << local_width << " = " << wrap
           << " < " << sources
           << ", so a saturating burst can wrap a local counter twice "
           << "within one arbiter rotation and lose overflow bits "
           << "(unbounded undercount, violating §IV-B)";
        report.add("CNT-002", Severity::Error, os.str(), subject);
        return report;
    }

    const u64 bound = undercountBound(sources, local_width);
    if (bound > kUndercountWarnEvents) {
        std::ostringstream os;
        os << "worst-case end-of-run undercount " << sources << " x 2^"
           << local_width << " = " << bound
           << " events exceeds the tolerance of "
           << kUndercountWarnEvents
           << "; host-side residue correction is required for "
           << "trustworthy counts";
        report.add("CNT-003", Severity::Warn, os.str(), subject);
    }
    return report;
}

/**
 * CNT-004: the longest AddWires adder chain within the timing budget
 * (the §V-C longest-path data shows delay growing with sources;
 * GigaBOOM's 9-lane chain of 8 adders is the largest shipped).
 */
constexpr u32 kAddWiresChainWarnLength = 8;

LintReport
lintCounterArch(const Core &core)
{
    LintReport report;
    const CounterArch arch = core.csrs().arch();
    const EventBus &bus = core.bus();

    for (u32 i = 0; i < kNumEvents; i++) {
        const EventId id = static_cast<EventId>(i);
        const EventInfo info = eventInfo(core.kind(), id);
        if (!info.supported)
            continue;
        const u32 sources = bus.sourcesOf(id);

        switch (arch) {
          case CounterArch::Scalar:
            if (sources > csr::numHpm) {
                std::ostringstream os;
                os << "needs " << sources
                   << " per-lane hardware counters but only "
                   << csr::numHpm << " exist";
                report.add("CNT-001", Severity::Error, os.str(),
                           info.name);
            }
            break;
          case CounterArch::AddWires:
            if (addWiresChainLength(sources) >
                kAddWiresChainWarnLength) {
                std::ostringstream os;
                os << "adder chain of " << addWiresChainLength(sources)
                   << " exceeds the timing budget of "
                   << kAddWiresChainWarnLength
                   << " (§V-C: chain delay grows with sources)";
                report.add("CNT-004", Severity::Warn, os.str(),
                           info.name);
            }
            break;
          case CounterArch::Distributed:
            if (sources > 1) {
                report.merge(lintDistributedBounds(
                    sources, localWidthFor(sources), info.name));
            }
            break;
        }
    }
    return report;
}

LintReport
lintPerfRequest(const Core &core, const std::vector<EventId> &events)
{
    LintReport report;
    const bool per_lane =
        core.csrs().arch() == CounterArch::Scalar;
    u32 total = 0;

    for (u64 i = 0; i < events.size(); i++) {
        const EventId event = events[i];
        const EventInfo info = eventInfo(core.kind(), event);
        if (!info.supported) {
            std::ostringstream os;
            os << "requested but not supported on "
               << coreKindName(core.kind());
            report.add("EVT-003", Severity::Error, os.str(),
                       eventName(event));
            continue;
        }
        if (isReservedTlbEvent(event)) {
            report.add("EVT-004", Severity::Warn,
                       "reserved TLB event requested: counts are not "
                       "validated (paper §IV-A future work)",
                       eventName(event));
        }
        for (u64 j = i + 1; j < events.size(); j++) {
            if (events[j] == event) {
                report.add("CSR-004", Severity::Error,
                           "requested twice in one configuration: "
                           "would occupy two counters for one count",
                           eventName(event));
                break;
            }
        }

        const u32 sources = core.bus().sourcesOf(event);
        const u32 span = per_lane && sources > 1 ? sources : 1;
        if (span > csr::numHpm) {
            std::ostringstream os;
            os << "needs " << span << " per-lane counters in one "
               << "multiplex group but only " << csr::numHpm
               << " exist";
            report.add("CNT-001", Severity::Error, os.str(),
                       eventName(event));
        }
        total += span;
    }

    if (total > csr::numHpm) {
        std::ostringstream os;
        os << "request needs " << total << " counters > "
           << csr::numHpm << ": the harness will time-multiplex into "
           << (total + csr::numHpm - 1) / csr::numHpm
           << " groups and counts become scaled estimates";
        report.add("CNT-001", Severity::Info, os.str(),
                   "perf-request");
    }
    return report;
}

// ================================================ TMA-* (conservation)

namespace
{

/** TMA-00x: deterministic samples of the counter domain, and seed. */
constexpr u32 kTmaSamples = 512;
constexpr u64 kTmaSampleSeed = 0x1C1C1Eull;

/** The TMA rules that judge the PROVE-R4 families, and their claims. */
constexpr std::pair<const char *, const char *> kTmaRules[] = {
    {"TMA-001", "top-level classes must sum to 1"},
    {"TMA-002",
     "level-2/level-3 children must sum to and stay within their parent"},
    {"TMA-003", "every class must lie in its derived interval"},
    {"TMA-004", "Branch Mispredicts must stay within its children "
                "envelope"},
};
constexpr u32 kNumTmaRules = std::size(kTmaRules);

/** Which TMA rule reports each R4 family, by constraint-id prefix. */
constexpr std::pair<const char *, u32> kTmaRuleOfFamily[] = {
    {"R4.sum.", 0},      {"R4.split.", 1}, {"R4.min.", 1},
    {"R4.interval.", 2}, {"R4.mono.", 3},  {"R4.subadd.", 3},
};

/**
 * Identities the TMA family checks whether or not the DAG still
 * proves them: the top-level sum, the three child splits and the
 * Branch Mispredicts envelope.
 */
constexpr const char *kRequiredTma[] = {
    "R4.sum.top",       "R4.split.frontend",
    "R4.split.backend", "R4.split.mem-bound",
    "R4.mono.resteers", "R4.mono.recovery-bubbles",
    "R4.subadd.branch-mispredicts",
};

u32
tmaRuleOf(const std::string &id)
{
    for (const auto &[prefix, rule] : kTmaRuleOfFamily) {
        if (id.rfind(prefix, 0) == 0)
            return rule;
    }
    panic("PROVE-R4 constraint ", id, " has no TMA lint rule");
}

/** Domain of one TmaCounters sample, as a record for diagnostics. */
std::string
describeCounters(const TmaCounters &c)
{
    std::ostringstream os;
    os << "cycles=" << c.cycles << " retired=" << c.retiredUops
       << " issued=" << c.issuedUops << " bubbles=" << c.fetchBubbles
       << " recovering=" << c.recovering
       << " mispredicts=" << c.branchMispredicts
       << " clears=" << c.machineClears << " fences=" << c.fencesRetired
       << " ic-blocked=" << c.icacheBlocked
       << " dc-blocked=" << c.dcacheBlocked
       << " dc-dram=" << c.dcacheBlockedDram;
    return os.str();
}

/** Record the first counterexample for a rule; count the rest. */
struct RuleTally
{
    u64 violations = 0;
    std::string firstExample;
    std::string firstDetail;

    void
    hit(const TmaCounters &c, const std::string &detail)
    {
        if (violations == 0) {
            firstExample = describeCounters(c);
            firstDetail = detail;
        }
        violations++;
    }

    void
    flush(LintReport &report, const char *rule, const char *what,
          u64 samples)
    {
        if (violations == 0)
            return;
        std::ostringstream os;
        os << what << " violated on " << violations << "/" << samples
           << " sampled counter readings; first counterexample: "
           << firstDetail << " at {" << firstExample << "}";
        report.add(rule, Severity::Error, os.str(), "tma-model");
    }
};

} // namespace

LintReport
lintTmaCoverage(const std::vector<TmaConstraint> &r4)
{
    LintReport report;
    for (const char *id : kRequiredTma) {
        if (std::any_of(r4.begin(), r4.end(), [id](const auto &c) {
                return c.id == id;
            }))
            continue;
        report.add(kTmaRules[tmaRuleOf(id)].first, Severity::Error,
                   std::string("the formula DAG no longer yields ") + id +
                       ", so the TMA lint cannot check it",
                   "tma-model");
    }
    return report;
}

LintReport
lintTmaModel(const TmaParams &params, const TmaModelFn &model)
{
    LintReport report;

    report.add(
        "TMA-005", Severity::Info,
        std::string("Table II prints M_nf_r = (C_bm + C_fence) / "
                    "M_tf, contradicting its own 'non-fence flush "
                    "ratio' label; the model implements the labelled "
                    "semantics (C_bm + C_flush) / M_tf so fence "
                    "flushes stay out of Bad Speculation. Set "
                    "TmaParams::paperLiteralNfr to reproduce the "
                    "printed formula verbatim") +
            (params.paperLiteralNfr
                 ? " [paperLiteralNfr is SET: this run uses the "
                   "printed formula]"
                 : ""),
        "tma-model");

    if (params.coreWidth == 0) {
        report.add("TMA-003", Severity::Error,
                   "core width W_C = 0: every slot ratio divides by "
                   "zero",
                   "tma-params");
        return report;
    }

    const std::vector<TmaConstraint> r4 = deriveTmaConstraints(params);
    report.merge(lintTmaCoverage(r4));

    const TmaModelFn &fn =
        model ? model
              : TmaModelFn([](const TmaCounters &c,
                              const TmaParams &p) {
                    return computeTma(c, p);
                });

    // Witness search: deterministic sweep of the admissible counter
    // domain (corners first, then pseudo-random interior points). Each
    // sample counts at most once per rule.
    LintRng rng(kTmaSampleSeed);
    const u64 kCycleChoices[] = {1, 3, 64, 10000, 1u << 20};
    const u64 w = params.coreWidth;

    std::array<RuleTally, kNumTmaRules> tallies;
    u64 samples = 0;

    auto checkSample = [&](const TmaCounters &c) {
        samples++;
        const TmaResult r = fn(c, params);
        std::array<bool, kNumTmaRules> hit{};
        for (const TmaConstraint &k : r4) {
            const u32 rule = tmaRuleOf(k.id);
            double excess = 0;
            if (hit[rule] || satisfiesTma(k, r, &excess))
                continue;
            hit[rule] = true;
            std::ostringstream os;
            os << k.id << " (" << k.text << ") fails by " << excess;
            tallies[rule].hit(c, os.str());
        }
    };

    // Corner cases: the degenerate readings that historically break
    // ratio models (all-zero flush causes, saturated bubbles, ...).
    for (u64 cycles : kCycleChoices) {
        TmaCounters c;
        c.cycles = cycles;
        checkSample(c); // everything zero but cycles

        c.retiredUops = w * cycles; // pure retiring
        checkSample(c);

        c = TmaCounters{};
        c.cycles = cycles;
        c.fetchBubbles = w * cycles; // saturated frontend
        checkSample(c);

        c = TmaCounters{};
        c.cycles = cycles;
        c.issuedUops = 4 * w * cycles; // everything flushed
        c.branchMispredicts = cycles;
        checkSample(c);

        c = TmaCounters{};
        c.cycles = cycles;
        c.recovering = cycles; // permanent recovery
        c.machineClears = cycles;
        checkSample(c);
    }

    while (samples < kTmaSamples) {
        TmaCounters c;
        c.cycles = kCycleChoices[rng.below(4)];
        const u64 slots = w * c.cycles;
        c.retiredUops = rng.below(slots);
        c.issuedUops = c.retiredUops + rng.below(4 * slots -
                                                 c.retiredUops);
        c.fetchBubbles = rng.below(slots);
        c.recovering = rng.below(c.cycles);
        c.branchMispredicts = rng.below(c.cycles);
        c.machineClears = rng.below(c.cycles);
        c.fencesRetired = rng.below(c.cycles);
        c.icacheBlocked = rng.below(c.cycles);
        c.dcacheBlocked = rng.below(slots);
        c.dcacheBlockedDram = rng.below(c.dcacheBlocked);
        checkSample(c);
    }

    for (u32 rule = 0; rule < kNumTmaRules; rule++)
        tallies[rule].flush(report, kTmaRules[rule].first,
                            kTmaRules[rule].second, samples);
    return report;
}

// ========================================================== composite

LintReport
lintCore(const Core &core)
{
    LintReport report;
    report.merge(lintEventWiring(core));
    report.merge(lintCounterArch(core));
    report.merge(lintCsrFile(core.csrs(), core.bus()));

    TmaParams params;
    params.coreWidth = core.coreWidth();
    report.merge(lintTmaModel(params));
    // REF-*: the derived constraint set itself must be statically
    // satisfiable (analysis/constraints.hh).
    report.merge(lintConstraints(core));
    return report;
}

// =========================================================== gating

void
setLintOnConstruct(bool enabled)
{
    g_lintOnConstruct = enabled;
}

bool
lintOnConstruct()
{
    return g_lintOnConstruct;
}

const LintReport &
enforceLint(const LintReport &report, const char *context)
{
    if (g_lintOnConstruct && report.hasErrors()) {
        fatal("model lint failed in ", context, " (",
              report.errorCount(), " errors):\n", report.format());
    }
    return report;
}

} // namespace icicle
