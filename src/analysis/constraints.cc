#include "analysis/constraints.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "core/session.hh"

namespace icicle
{

const char *
constraintKindName(ConstraintKind kind)
{
    switch (kind) {
      case ConstraintKind::WidthBound: return "width-bound";
      case ConstraintKind::Dominance: return "dominance";
      case ConstraintKind::Partition: return "partition";
      case ConstraintKind::TmaDomain: return "tma-domain";
      default: return "?";
    }
}

// ------------------------------------------------------------ evaluation

i64
evaluateLinear(const LinearConstraint &c,
               const std::array<u64, kNumEvents> &deltas)
{
    i64 lhs = c.constant;
    for (const LinearTerm &t : c.terms)
        lhs += t.coeff *
               static_cast<i64>(deltas[static_cast<u32>(t.event)]);
    return lhs;
}

bool
satisfiesLinear(const LinearConstraint &c,
                const std::array<u64, kNumEvents> &deltas)
{
    const i64 lhs = evaluateLinear(c, deltas);
    return c.op == ConstraintOp::EqZero ? lhs == 0 : lhs >= 0;
}

bool
satisfiesTma(const TmaConstraint &c, const TmaResult &result,
             double *violation)
{
    // NaN compares false both ways, so without this flag a NaN root
    // would pass every relation below.
    bool finite = true;
    auto value = [&](TmaRoot root) {
        const double v = tmaRootValue(result, root);
        finite = finite && std::isfinite(v);
        return v;
    };
    auto sum = [&](const std::vector<TmaRoot> &roots) {
        double total = 0;
        for (TmaRoot root : roots)
            total += value(root);
        return total;
    };

    double excess = 0;
    switch (c.op) {
      case TmaCheckOp::InInterval: {
        const double v = value(c.subject);
        if (v < c.bounds.lo - c.tolerance)
            excess = c.bounds.lo - v;
        else if (v > c.bounds.hi + c.tolerance)
            excess = v - c.bounds.hi;
        break;
      }
      case TmaCheckOp::PartsSumToWhole: {
        const double gap = std::abs(value(c.subject) - sum(c.parts));
        if (gap > c.tolerance)
            excess = gap;
        break;
      }
      case TmaCheckOp::DominatedBy: {
        const double v = value(c.subject);
        const double bound = sum(c.parts);
        if (v > bound + c.tolerance)
            excess = v - bound;
        break;
      }
      case TmaCheckOp::SumIsOne: {
        const double gap = std::abs(sum(c.parts) - 1.0);
        if (gap > c.tolerance)
            excess = gap;
        break;
      }
    }
    if (!finite)
        excess = std::numeric_limits<double>::infinity();
    if (violation)
        *violation = excess;
    return excess == 0;
}

// ------------------------------------------------------------ derivation

namespace
{

/** Horizon the admissible interval domain is evaluated over. */
constexpr u64 kDomainCycles = 1ull << 40;

std::string
deltaName(EventId id)
{
    return std::string("delta(") + eventName(id) + ")";
}

void
addWidthBounds(const Core &core, ConstraintSet &set)
{
    const CoreKind kind = core.kind();
    const EventBus &bus = core.bus();
    for (u32 e = 0; e < kNumEvents; e++) {
        const EventId id = static_cast<EventId>(e);
        if (id == EventId::Cycles || !eventInfo(kind, id).supported)
            continue;
        const u32 sources = bus.sourcesOf(id);
        LinearConstraint c;
        c.id = std::string("R1.width.") + eventName(id);
        c.rule = "PROVE-R1";
        c.kind = ConstraintKind::WidthBound;
        c.op = ConstraintOp::GeZero;
        c.terms = {{EventId::Cycles, static_cast<i64>(sources)},
                   {id, -1}};
        std::ostringstream text, why;
        text << deltaName(id) << " <= " << sources << " * delta(cycles)";
        why << "bus wiring: '" << eventName(id) << "' drives "
            << sources << " source wire(s) on "
            << (kind == CoreKind::Boom ? "BOOM" : "Rocket")
            << "; each wire asserts at most one bit per cycle, so the"
               " popcount-summed total gains at most " << sources
            << " per cycle";
        c.text = text.str();
        c.provenance = why.str();
        set.linear.push_back(std::move(c));
    }

    // Any run that produced counters ran at least one cycle.
    LinearConstraint progress;
    progress.id = "R1.progress";
    progress.rule = "PROVE-R1";
    progress.kind = ConstraintKind::WidthBound;
    progress.op = ConstraintOp::GeZero;
    progress.terms = {{EventId::Cycles, 1}};
    progress.constant = -1;
    progress.text = "delta(cycles) >= 1";
    progress.provenance =
        "CoreModel::tick() raises 'cycles' unconditionally every cycle; a "
        "measured run spans at least one tick";
    set.linear.push_back(std::move(progress));
}

/** One structural gating fact: sub fires only where a dom fires. */
struct GatingFact
{
    EventId sub;
    std::vector<EventId> doms;
    bool onRocket;
    bool onBoom;
    bool endOfRunOnly;
    const char *site;
};

const GatingFact kGatingFacts[] = {
    {EventId::CtrlFlowTargetMispredict, {EventId::BranchMispredict},
     true, true, false,
     "the target-mispredict raise sits inside the mispredict "
     "resolution branch (rocket.cc mispredict resolution / boom.cc "
     "stageComplete); a cycle asserting it always asserts "
     "branch-mispredict"},
    {EventId::DCacheBlockedDram, {EventId::DCacheBlocked}, true, true,
     false,
     "the DRAM-attribution raise is nested per-lane inside the "
     "dcache-blocked raise site, so its per-cycle source mask is a "
     "subset of dcache-blocked's"},
    {EventId::L2TlbMiss, {EventId::ITlbMiss, EventId::DTlbMiss}, true,
     true, false,
     "an L2 TLB miss is raised only under a first-level ITLB or DTLB "
     "miss (fetch and load/store translation paths)"},
    {EventId::InstRetired, {EventId::InstIssued}, true, false, false,
     "Rocket retires at issue: raiseRetireClassEvents runs on the "
     "issue path (guarded by !wrongPath) in the same cycle that "
     "raises inst-issued"},
    {EventId::ICacheMiss, {EventId::ICacheBlocked}, true, false, false,
     "Rocket's fetch path raises icache-blocked unconditionally in "
     "the block that raises icache-miss"},
    {EventId::BranchMispredict, {EventId::BranchResolved}, false, true,
     false,
     "BOOM raises branch-mispredict for a resolving uop whose class "
     "also raises branch-resolved in the same completion cycle"},
    {EventId::UopsRetired, {EventId::UopsIssued}, false, true, true,
     "every ROB entry passes through an issue queue (stageIssue "
     "raises uops-issued) before it can reach Done and commit; once "
     "the pipeline drains, total retired <= total issued"},
    {EventId::FenceRetired, {EventId::InstRetired}, false, true, false,
     "fence-retired is raised at commit, in the same cycle the "
     "committing lane raises inst-retired"},
    {EventId::Exception, {EventId::InstRetired}, false, true, false,
     "the exception event is raised when a System-class uop commits, "
     "alongside that lane's inst-retired"},
};

void
addDominance(const Core &core, ConstraintSet &set)
{
    const CoreKind kind = core.kind();
    for (const GatingFact &fact : kGatingFacts) {
        if (kind == CoreKind::Rocket ? !fact.onRocket : !fact.onBoom)
            continue;
        bool supported = eventInfo(kind, fact.sub).supported;
        for (EventId dom : fact.doms)
            supported = supported && eventInfo(kind, dom).supported;
        if (!supported)
            continue;
        LinearConstraint c;
        c.id = std::string("R2.dom.") + eventName(fact.sub);
        c.rule = "PROVE-R2";
        c.kind = ConstraintKind::Dominance;
        c.op = ConstraintOp::GeZero;
        c.endOfRunOnly = fact.endOfRunOnly;
        std::ostringstream text;
        text << deltaName(fact.sub) << " <= ";
        for (u32 i = 0; i < fact.doms.size(); i++) {
            c.terms.push_back({fact.doms[i], 1});
            text << (i ? " + " : "") << deltaName(fact.doms[i]);
        }
        c.terms.push_back({fact.sub, -1});
        c.text = text.str();
        c.provenance = std::string("pipeline gating: ") + fact.site;
        set.linear.push_back(std::move(c));
    }
}

void
addPartitions(const Core &core, ConstraintSet &set)
{
    const CoreKind kind = core.kind();
    if (kind == CoreKind::Rocket) {
        // raiseRetireClassEvents raises inst-retired plus exactly one
        // class event per retirement; the classes partition instret.
        const EventId classes[] = {
            EventId::LoadRetired,  EventId::StoreRetired,
            EventId::BranchRetired, EventId::SystemRetired,
            EventId::FenceRetired, EventId::ArithRetired,
        };
        LinearConstraint c;
        c.id = "R3.partition.instret";
        c.rule = "PROVE-R3";
        c.kind = ConstraintKind::Partition;
        c.op = ConstraintOp::EqZero;
        c.terms.push_back({EventId::InstRetired, 1});
        std::ostringstream text;
        text << deltaName(EventId::InstRetired) << " == ";
        for (u32 i = 0; i < 6; i++) {
            c.terms.push_back({classes[i], -1});
            text << (i ? " + " : "") << deltaName(classes[i]);
        }
        c.text = text.str();
        c.provenance =
            "retire-class decoder: raiseRetireClassEvents raises "
            "inst-retired and exactly one class event (load, store, "
            "branch incl. jumps, system incl. CSR, fence, arith "
            "default) per retirement, in the same cycle on the same "
            "single-source wires";
        set.linear.push_back(std::move(c));
    } else {
        // BOOM commit raises uops-retired and inst-retired on the
        // same lane for every committing uop: the totals are equal.
        LinearConstraint c;
        c.id = "R3.partition.uops-retired";
        c.rule = "PROVE-R3";
        c.kind = ConstraintKind::Partition;
        c.op = ConstraintOp::EqZero;
        c.terms = {{EventId::InstRetired, 1},
                   {EventId::UopsRetired, -1}};
        c.text = deltaName(EventId::InstRetired) +
                 " == " + deltaName(EventId::UopsRetired);
        c.provenance =
            "commit stage: stageCommit raises uops-retired and "
            "inst-retired on the same lane bit for every committed "
            "uop, so the per-cycle masks are identical";
        set.linear.push_back(std::move(c));
    }
}

/** Flatten an Add tree into its leaf node indices. */
void
flattenAdd(const TmaFormulaDag &dag, u32 node, std::vector<u32> &leaves)
{
    const TmaNode &n = dag.nodes()[node];
    if (n.op == TmaOp::Add) {
        flattenAdd(dag, n.a, leaves);
        flattenAdd(dag, n.b, leaves);
    } else {
        leaves.push_back(node);
    }
}

/** Root whose DAG node is `node`, or NumRoots. */
TmaRoot
rootAt(const TmaFormulaDag &dag, u32 node)
{
    for (u32 r = 0; r < kNumTmaRoots; r++) {
        if (dag.root(static_cast<TmaRoot>(r)) == node)
            return static_cast<TmaRoot>(r);
    }
    return TmaRoot::NumRoots;
}

/** Root whose DAG node is clamp01(num / den), or NumRoots. */
TmaRoot
clampedRatioRoot(const TmaFormulaDag &dag, u32 num, u32 den)
{
    for (u32 r = 0; r < kNumTmaRoots; r++) {
        const TmaNode &n = dag.nodes()[dag.root(static_cast<TmaRoot>(r))];
        if (n.op != TmaOp::Clamp01)
            continue;
        const TmaNode &quot = dag.nodes()[n.a];
        if (quot.op == TmaOp::SafeDiv && quot.a == num && quot.b == den)
            return static_cast<TmaRoot>(r);
    }
    return TmaRoot::NumRoots;
}

/** Set an InInterval constraint's bounds, text and provenance. */
void
setBounds(TmaConstraint &c, Interval bounds, const std::string &why)
{
    c.bounds = bounds;
    std::ostringstream text;
    text << tmaRootName(c.subject) << " in [" << bounds.lo << ", "
         << bounds.hi << "]";
    c.text = text.str();
    c.provenance = why;
}

/**
 * Facts of a root clamp01((x + y) / m) whose addends have roots
 * clamp01(x / m) and clamp01(y / m) over the same denominator, with
 * x and y non-negative on the domain: each addend's root is at most
 * the sum's (x/m and clamp01 are monotone), and the sum's root is at
 * most the addends' roots added (clamp01 is subadditive on
 * non-negative inputs).
 */
void
addClampedSumFacts(
    const TmaFormulaDag &dag, TmaRoot root,
    const std::array<Interval, kNumTmaCounterFields> &domain,
    const TmaParams &params, std::vector<TmaConstraint> &out)
{
    const TmaNode &n = dag.nodes()[dag.root(root)];
    if (n.op != TmaOp::Clamp01)
        return;
    const TmaNode &quot = dag.nodes()[n.a];
    if (quot.op != TmaOp::SafeDiv)
        return;
    const TmaNode &num = dag.nodes()[quot.a];
    if (num.op != TmaOp::Add ||
        dag.evalInterval(num.a, domain, params).lo < 0 ||
        dag.evalInterval(num.b, domain, params).lo < 0)
        return;

    const TmaRoot x = clampedRatioRoot(dag, num.a, quot.b);
    const TmaRoot y = clampedRatioRoot(dag, num.b, quot.b);
    for (TmaRoot part : {x, y}) {
        if (part == TmaRoot::NumRoots)
            continue;
        TmaConstraint c;
        c.id = std::string("R4.mono.") + tmaRootName(part);
        c.op = TmaCheckOp::DominatedBy;
        c.subject = part;
        c.parts = {root};
        c.text = std::string(tmaRootName(part)) +
                 " <= " + tmaRootName(root);
        c.provenance =
            std::string("monotonicity: the numerator of node ") +
            std::to_string(dag.root(part)) +
            " is an addend of the numerator of node " +
            std::to_string(dag.root(root)) +
            " over the same denominator; x/m and clamp01 are monotone "
            "and the extra addend is non-negative on the admissible "
            "domain";
        out.push_back(std::move(c));
    }
    if (x == TmaRoot::NumRoots || y == TmaRoot::NumRoots)
        return;
    TmaConstraint c;
    c.id = std::string("R4.subadd.") + tmaRootName(root);
    c.op = TmaCheckOp::DominatedBy;
    c.subject = root;
    c.parts = {x, y};
    c.text = std::string(tmaRootName(root)) + " <= " + tmaRootName(x) +
             " + " + tmaRootName(y);
    c.provenance =
        std::string("subadditivity: DAG node ") +
        std::to_string(dag.root(root)) + " computes clamp01((a + b) / m)"
        " and nodes " + std::to_string(dag.root(x)) + " and " +
        std::to_string(dag.root(y)) + " compute clamp01(a / m) and "
        "clamp01(b / m); a and b are non-negative on the admissible "
        "domain, where clamp01 is subadditive";
    out.push_back(std::move(c));
}

void
addTmaDomain(const Core &core, ConstraintSet &set)
{
    set.tma = deriveTmaConstraints(tmaParamsFor(core));

    // The bus wiring gives ipc its lid: the retire event's width.
    const EventId retired = core.kind() == CoreKind::Boom
                                ? EventId::UopsRetired
                                : EventId::InstRetired;
    const u32 sources = core.bus().sourcesOf(retired);
    std::ostringstream why;
    why << "ipc = delta(" << eventName(retired)
        << ")/delta(cycles) with the PROVE-R1 width bound "
        << "delta(" << eventName(retired) << ") <= " << sources
        << " * delta(cycles)";
    for (TmaConstraint &c : set.tma) {
        if (c.op == TmaCheckOp::InInterval && c.subject == TmaRoot::Ipc)
            setBounds(c, Interval(0.0, static_cast<double>(sources)),
                      why.str());
    }
}

} // namespace

std::vector<TmaConstraint>
deriveTmaConstraints(const TmaParams &params)
{
    std::vector<TmaConstraint> out;
    const TmaFormulaDag &dag =
        TmaFormulaDag::instance(params.paperLiteralNfr);
    const std::array<Interval, kNumTmaCounterFields> domain =
        tmaAdmissibleDomain(params, kDomainCycles);

    // Interval bound per root, over the whole admissible domain.
    for (u32 r = 0; r < kNumTmaRoots; r++) {
        const TmaRoot root = static_cast<TmaRoot>(r);
        const u32 node = dag.root(root);
        Interval bounds = dag.evalInterval(node, domain, params);
        std::ostringstream why;
        why << "interval evaluation of DAG node " << node << " ("
            << dag.describe(node) << ") over the admissible counter "
            << "domain";
        if (root == TmaRoot::Ipc) {
            // The interval quotient [0, W*C]/[1, C] is sound but
            // loose; the domain's retire bound gives the tight lid.
            bounds = Interval(0.0, static_cast<double>(params.coreWidth));
            why.str("");
            why << "ipc = retired-uops / cycles, and the admissible "
                   "domain bounds retired-uops by W_C * cycles (W_C = "
                << params.coreWidth << ")";
        }
        TmaConstraint c;
        c.id = std::string("R4.interval.") + tmaRootName(root);
        c.op = TmaCheckOp::InInterval;
        c.subject = root;
        setBounds(c, bounds, why.str());
        out.push_back(std::move(c));
    }

    // Structural hierarchy facts read off the DAG nodes themselves.
    for (u32 r = 0; r < kNumTmaRoots; r++) {
        const TmaRoot root = static_cast<TmaRoot>(r);
        const u32 node = dag.root(root);
        const TmaNode &n = dag.nodes()[node];

        // min(x, parent): the child can never exceed the parent.
        if (n.op == TmaOp::Min) {
            const TmaRoot parent = rootAt(dag, n.b);
            if (parent != TmaRoot::NumRoots) {
                TmaConstraint c;
                c.id = std::string("R4.min.") + tmaRootName(root);
                c.op = TmaCheckOp::DominatedBy;
                c.subject = root;
                c.parts = {parent};
                c.text = std::string(tmaRootName(root)) +
                         " <= " + tmaRootName(parent);
                c.provenance =
                    std::string("DAG node ") + std::to_string(node) +
                    " computes min(_, " + tmaRootName(parent) + ")";
                out.push_back(std::move(c));
            }
        }

        // clamp01(parent - sibling) where parent - sibling is already
        // in [0, 1]: the clamp is the identity, so
        // parent == sibling + this root exactly.
        if (n.op == TmaOp::Clamp01) {
            const TmaNode &child = dag.nodes()[n.a];
            if (child.op == TmaOp::Sub) {
                const TmaRoot parent = rootAt(dag, child.a);
                const TmaRoot sibling = rootAt(dag, child.b);
                if (parent != TmaRoot::NumRoots &&
                    sibling != TmaRoot::NumRoots) {
                    TmaConstraint c;
                    c.id = std::string("R4.split.") +
                           tmaRootName(parent);
                    c.op = TmaCheckOp::PartsSumToWhole;
                    c.subject = parent;
                    c.parts = {sibling, root};
                    c.text = std::string(tmaRootName(parent)) +
                             " == " + tmaRootName(sibling) + " + " +
                             tmaRootName(root);
                    c.provenance =
                        std::string("DAG node ") +
                        std::to_string(node) + " computes clamp01(" +
                        tmaRootName(parent) + " - " +
                        tmaRootName(sibling) + "); the min-structure "
                        "guarantees the difference is in [0, 1], so "
                        "the clamp is the identity and the split is "
                        "exact";
                    out.push_back(std::move(c));
                }
            }
        }

        addClampedSumFacts(dag, root, domain, params, out);
    }

    // Top-level conservation: the four classes share one
    // normalization denominator that is exactly the sum of their
    // numerators, so they sum to 1.
    const TmaRoot top[] = {TmaRoot::Retiring, TmaRoot::BadSpeculation,
                           TmaRoot::Frontend, TmaRoot::Backend};
    bool structural = true;
    u32 denom = ~0u;
    std::vector<u32> numerators;
    for (TmaRoot root : top) {
        const TmaNode &n = dag.nodes()[dag.root(root)];
        if (n.op != TmaOp::SafeDiv ||
            (denom != ~0u && n.b != denom)) {
            structural = false;
            break;
        }
        denom = n.b;
        numerators.push_back(n.a);
    }
    if (structural) {
        std::vector<u32> leaves;
        flattenAdd(dag, denom, leaves);
        std::sort(leaves.begin(), leaves.end());
        std::sort(numerators.begin(), numerators.end());
        structural = leaves == numerators;
    }
    if (structural) {
        TmaConstraint c;
        c.id = "R4.sum.top";
        c.op = TmaCheckOp::SumIsOne;
        c.parts = {TmaRoot::Retiring, TmaRoot::BadSpeculation,
                   TmaRoot::Frontend, TmaRoot::Backend};
        c.text = "retiring + bad-speculation + frontend + backend == 1";
        std::ostringstream why;
        why << "normalization structure: the four class roots divide "
               "by the shared DAG node " << denom
            << ", which is exactly the sum of their numerators; each "
               "numerator is clamped non-negative and at least one is "
               "strictly positive whenever cycles >= 1";
        c.provenance = why.str();
        out.push_back(std::move(c));
    }
    return out;
}

ConstraintSet
deriveConstraints(const Core &core)
{
    ConstraintSet set;
    set.kind = core.kind();
    set.subject = core.name();
    addWidthBounds(core, set);
    addDominance(core, set);
    addPartitions(core, set);
    addTmaDomain(core, set);
    return set;
}

// ----------------------------------------------------------- rendering

std::string
ConstraintSet::format(bool with_provenance) const
{
    std::ostringstream os;
    os << "constraints for " << subject << " ("
       << (kind == CoreKind::Boom ? "boom" : "rocket")
       << "): " << linear.size() << " linear + " << tma.size()
       << " tma\n";
    for (const LinearConstraint &c : linear) {
        os << "  [" << c.rule << "] " << c.id << ": " << c.text
           << (c.endOfRunOnly ? "  (end of run)" : "") << "\n";
        if (with_provenance)
            os << "      derived from: " << c.provenance << "\n";
    }
    for (const TmaConstraint &c : tma) {
        os << "  [" << c.rule << "] " << c.id << ": " << c.text << "\n";
        if (with_provenance)
            os << "      derived from: " << c.provenance << "\n";
    }
    return os.str();
}

std::string
ConstraintSet::toJson() const
{
    std::ostringstream os;
    os << "{\"subject\":\"" << jsonEscape(subject) << "\",\"core\":\""
       << (kind == CoreKind::Boom ? "boom" : "rocket")
       << "\",\"constraints\":[";
    bool first = true;
    for (const LinearConstraint &c : linear) {
        os << (first ? "" : ",") << "{\"id\":\"" << jsonEscape(c.id)
           << "\",\"rule\":\"" << c.rule << "\",\"kind\":\""
           << constraintKindName(c.kind) << "\",\"relation\":\""
           << (c.op == ConstraintOp::EqZero ? "==0" : ">=0")
           << "\",\"constant\":" << c.constant << ",\"endOfRunOnly\":"
           << (c.endOfRunOnly ? "true" : "false") << ",\"terms\":[";
        for (u32 i = 0; i < c.terms.size(); i++) {
            os << (i ? "," : "") << "{\"event\":\""
               << eventName(c.terms[i].event) << "\",\"coeff\":"
               << c.terms[i].coeff << "}";
        }
        os << "],\"text\":\"" << jsonEscape(c.text)
           << "\",\"provenance\":\"" << jsonEscape(c.provenance)
           << "\"}";
        first = false;
    }
    for (const TmaConstraint &c : tma) {
        os << (first ? "" : ",") << "{\"id\":\"" << jsonEscape(c.id)
           << "\",\"rule\":\"" << c.rule << "\",\"kind\":\""
           << constraintKindName(ConstraintKind::TmaDomain)
           << "\",\"lo\":" << c.bounds.lo << ",\"hi\":" << c.bounds.hi
           << ",\"text\":\"" << jsonEscape(c.text)
           << "\",\"provenance\":\"" << jsonEscape(c.provenance)
           << "\"}";
        first = false;
    }
    os << "]}";
    return os.str();
}

// ------------------------------------------------------------- REF lint

LintReport
lintConstraints(const Core &core)
{
    LintReport report;
    const ConstraintSet set = deriveConstraints(core);
    const CoreKind kind = core.kind();

    // REF-001: the derivation must produce a substantive set; an
    // empty or near-empty result means the wiring or formula inputs
    // degenerated and nothing downstream can be refuted.
    constexpr u32 kStructuralFloor = 15;
    if (set.size() < kStructuralFloor) {
        std::ostringstream msg;
        msg << "constraint derivation produced only " << set.size()
            << " constraints (floor " << kStructuralFloor
            << "): event wiring or formula DAG inputs are degenerate";
        report.add("REF-001", Severity::Error, msg.str(), set.subject);
    }

    // REF-002: width bounds must be representable — a supported event
    // with zero sources, or more sources than the u16 bus mask can
    // carry, makes delta(e) <= sources * cycles meaningless.
    for (u32 e = 0; e < kNumEvents; e++) {
        const EventId id = static_cast<EventId>(e);
        if (!eventInfo(kind, id).supported)
            continue;
        const u32 sources = core.bus().sourcesOf(id);
        if (sources == 0 || sources > kMaxSources) {
            std::ostringstream msg;
            msg << "event '" << eventName(id) << "' declares "
                << sources << " sources; width bounds require 1.."
                << kMaxSources << " (bus mask capacity)";
            report.add("REF-002", Severity::Error, msg.str(),
                       set.subject);
        } else if (satMulU64(sources, kDomainCycles) == kU64Max) {
            std::ostringstream msg;
            msg << "event '" << eventName(id)
                << "': per-run capacity sources * horizon saturates "
                   "u64; width bound degenerates to trivially true";
            report.add("REF-002", Severity::Warn, msg.str(),
                       set.subject);
        }
    }

    // REF-003: every TMA fraction root's derived interval must stay
    // inside [0, 1]; escaping it means the formula DAG violates its
    // own codomain and the domain constraints are unsatisfiable.
    constexpr double kCodomainSlack = 1e-6;
    for (const TmaConstraint &c : set.tma) {
        if (c.op != TmaCheckOp::InInterval ||
            c.subject == TmaRoot::Ipc)
            continue;
        if (!c.bounds.valid() || c.bounds.lo < -kCodomainSlack ||
            c.bounds.hi > 1.0 + kCodomainSlack) {
            std::ostringstream msg;
            msg << "root '" << tmaRootName(c.subject)
                << "' has derived interval [" << c.bounds.lo << ", "
                << c.bounds.hi << "] outside the fraction codomain "
                << "[0, 1]";
            report.add("REF-003", Severity::Error, msg.str(),
                       set.subject);
        }
    }

    // REF-004: a partition equality is statically unsatisfiable when
    // the member classes' combined per-cycle capacity is below the
    // whole event's — at whole-event saturation the equality must
    // fail.
    for (const LinearConstraint &c : set.linear) {
        if (c.kind != ConstraintKind::Partition)
            continue;
        u64 whole = 0, parts = 0;
        for (const LinearTerm &t : c.terms) {
            const u64 cap = core.bus().sourcesOf(t.event);
            if (t.coeff > 0)
                whole = satAddU64(whole, cap);
            else
                parts = satAddU64(parts, cap);
        }
        if (parts < whole) {
            std::ostringstream msg;
            msg << "partition '" << c.id << "': member capacity "
                << parts << "/cycle cannot cover the whole event's "
                << whole << "/cycle; the conservation equality is "
                << "unsatisfiable at saturation";
            report.add("REF-004", Severity::Error, msg.str(),
                       set.subject);
        }
    }

    return report;
}

} // namespace icicle
