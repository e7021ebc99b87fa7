#include "tma/formula.hh"

#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace icicle
{

namespace
{

const char *const kRootNames[kNumTmaRoots] = {
    "retiring",        "bad-speculation",   "frontend",
    "backend",         "machine-clears",    "branch-mispredicts",
    "resteers",        "recovery-bubbles",  "fetch-latency",
    "pc-resteer",      "core-bound",        "mem-bound",
    "mem-bound-l2",    "mem-bound-dram",    "ipc",
};

const char *const kFieldNames[kNumTmaCounterFields] = {
    "cycles",         "retired-uops",    "issued-uops",
    "fetch-bubbles",  "recovering",      "branch-mispredicts",
    "machine-clears", "fences-retired",  "icache-blocked",
    "dcache-blocked", "dcache-blocked-dram",
};

} // namespace

const char *
tmaRootName(TmaRoot root)
{
    return kRootNames[static_cast<u32>(root)];
}

const char *
tmaCounterFieldName(TmaCounterField field)
{
    return kFieldNames[static_cast<u32>(field)];
}

// --------------------------------------------------------- construction

TmaFormulaDag::TmaFormulaDag(bool paper_literal_nfr)
{
    auto push = [this](TmaNode node) -> u32 {
        graph.push_back(node);
        return static_cast<u32>(graph.size() - 1);
    };
    auto cnt = [&](TmaCounterField f) {
        TmaNode n;
        n.op = TmaOp::Counter;
        n.counter = f;
        n.label = kFieldNames[static_cast<u32>(f)];
        return push(n);
    };
    auto par = [&](TmaParamField p, const char *label) {
        TmaNode n;
        n.op = TmaOp::Param;
        n.param = p;
        n.label = label;
        return push(n);
    };
    auto lit = [&](double v) {
        TmaNode n;
        n.op = TmaOp::Const;
        n.value = v;
        return push(n);
    };
    auto binary = [&](TmaOp op, u32 a, u32 b, const char *label = "",
                      bool known01 = false) {
        TmaNode n;
        n.op = op;
        n.a = a;
        n.b = b;
        n.label = label;
        n.known01 = known01;
        return push(n);
    };
    auto unary = [&](TmaOp op, u32 a, const char *label = "") {
        TmaNode n;
        n.op = op;
        n.a = a;
        n.label = label;
        return push(n);
    };

    // ---- inputs ------------------------------------------------------
    const u32 cycles = cnt(TmaCounterField::Cycles);
    const u32 retired = cnt(TmaCounterField::RetiredUops);
    const u32 issued = cnt(TmaCounterField::IssuedUops);
    const u32 bubbles = cnt(TmaCounterField::FetchBubbles);
    const u32 recovering = cnt(TmaCounterField::Recovering);
    const u32 bm = cnt(TmaCounterField::BranchMispredicts);
    const u32 clears = cnt(TmaCounterField::MachineClears);
    const u32 fences = cnt(TmaCounterField::FencesRetired);
    const u32 icb = cnt(TmaCounterField::ICacheBlocked);
    const u32 dcb = cnt(TmaCounterField::DCacheBlocked);
    const u32 dram = cnt(TmaCounterField::DCacheBlockedDram);
    const u32 w = par(TmaParamField::CoreWidth, "W_C");
    const u32 m_rl = par(TmaParamField::RecoverLength, "M_rl");

    // ---- derived metrics (Table II top block) ------------------------
    // M_total = cycles * W_C
    const u32 m_total = binary(TmaOp::Mul, cycles, w, "M_total");
    // M_tf = clears + mispredicts + fences
    const u32 m_tf = binary(
        TmaOp::Add, binary(TmaOp::Add, clears, bm), fences, "M_tf");
    // Sub-sum / sum ratios: the numerator is a non-negative part of
    // M_tf, so each ratio provably lies in [0, 1] (known01).
    const u32 m_br_mr =
        binary(TmaOp::SafeDiv, bm, m_tf, "M_br_mr", true);
    const u32 m_nf_r = binary(
        TmaOp::SafeDiv,
        binary(TmaOp::Add, bm, paper_literal_nfr ? fences : clears),
        m_tf, "M_nf_r", true);
    const u32 m_fl_r =
        binary(TmaOp::SafeDiv, clears, m_tf, "M_fl_r", true);

    // flushed_uops = max(issued - retired, 0)
    const u32 flushed = binary(
        TmaOp::Max, binary(TmaOp::Sub, issued, retired), lit(0.0),
        "flushed_uops");
    // rec_slots = recovering * W_C
    const u32 rec_slots =
        binary(TmaOp::Mul, recovering, w, "rec_slots");

    // ---- top level (pre-normalization) -------------------------------
    const u32 retiring_raw = unary(
        TmaOp::Clamp01, binary(TmaOp::SafeDiv, retired, m_total),
        "retiring_raw");
    const u32 badspec_raw = unary(
        TmaOp::Clamp01,
        binary(TmaOp::SafeDiv,
               binary(TmaOp::Add,
                      binary(TmaOp::Add,
                             binary(TmaOp::Mul, flushed, m_nf_r),
                             rec_slots),
                      binary(TmaOp::Mul, binary(TmaOp::Mul, m_rl, bm),
                             w)),
               m_total),
        "badspec_raw");
    const u32 frontend_raw = unary(
        TmaOp::Clamp01, binary(TmaOp::SafeDiv, bubbles, m_total),
        "frontend_raw");
    const u32 backend_raw = unary(
        TmaOp::Clamp01,
        binary(TmaOp::Sub,
               binary(TmaOp::Sub,
                      binary(TmaOp::Sub, lit(1.0), frontend_raw),
                      badspec_raw),
               retiring_raw),
        "backend_raw");

    // Normalization: each class over the class sum. The numerator is
    // one non-negative addend of the denominator, hence [0, 1].
    const u32 sum = binary(
        TmaOp::Add,
        binary(TmaOp::Add, binary(TmaOp::Add, retiring_raw, badspec_raw),
               frontend_raw),
        backend_raw, "class_sum");
    const u32 retiring = binary(TmaOp::SafeDiv, retiring_raw, sum,
                                "retiring", true);
    const u32 badspec = binary(TmaOp::SafeDiv, badspec_raw, sum,
                               "bad_speculation", true);
    const u32 frontend =
        binary(TmaOp::SafeDiv, frontend_raw, sum, "frontend", true);
    const u32 backend =
        binary(TmaOp::SafeDiv, backend_raw, sum, "backend", true);

    // ---- level 2: Bad Speculation ------------------------------------
    // flushed * M_br_mr is shared between resteers and the
    // branch-mispredicts numerator; keeping it one node lets the
    // constraint derivation read the monotone-dominance relation
    // straight off the structure.
    const u32 flushed_br =
        binary(TmaOp::Mul, flushed, m_br_mr, "flushed_br");
    const u32 machine_clears = unary(
        TmaOp::Clamp01,
        binary(TmaOp::SafeDiv, binary(TmaOp::Mul, flushed, m_fl_r),
               m_total),
        "machine_clears");
    const u32 branch_mispredicts = unary(
        TmaOp::Clamp01,
        binary(TmaOp::SafeDiv,
               binary(TmaOp::Add, flushed_br, rec_slots), m_total),
        "branch_mispredicts");
    const u32 resteers = unary(
        TmaOp::Clamp01,
        binary(TmaOp::SafeDiv, flushed_br, m_total), "resteers");
    const u32 recovery_bubbles = unary(
        TmaOp::Clamp01, binary(TmaOp::SafeDiv, rec_slots, m_total),
        "recovery_bubbles");

    // ---- level 2: Frontend -------------------------------------------
    const u32 fetch_latency = binary(
        TmaOp::Min,
        unary(TmaOp::Clamp01,
              binary(TmaOp::SafeDiv, binary(TmaOp::Mul, icb, w),
                     m_total)),
        frontend, "fetch_latency");
    const u32 pc_resteer = unary(
        TmaOp::Clamp01, binary(TmaOp::Sub, frontend, fetch_latency),
        "pc_resteer");

    // ---- level 2: Backend --------------------------------------------
    const u32 mem_bound = binary(
        TmaOp::Min,
        unary(TmaOp::Clamp01, binary(TmaOp::SafeDiv, dcb, m_total)),
        backend, "mem_bound");
    const u32 core_bound = unary(
        TmaOp::Clamp01, binary(TmaOp::Sub, backend, mem_bound),
        "core_bound");

    // ---- level 3: Mem Bound split ------------------------------------
    const u32 mem_bound_dram = binary(
        TmaOp::Min,
        unary(TmaOp::Clamp01, binary(TmaOp::SafeDiv, dram, m_total)),
        mem_bound, "mem_bound_dram");
    const u32 mem_bound_l2 = unary(
        TmaOp::Clamp01, binary(TmaOp::Sub, mem_bound, mem_bound_dram),
        "mem_bound_l2");

    const u32 ipc = binary(TmaOp::SafeDiv, retired, cycles, "ipc");

    roots[static_cast<u32>(TmaRoot::Retiring)] = retiring;
    roots[static_cast<u32>(TmaRoot::BadSpeculation)] = badspec;
    roots[static_cast<u32>(TmaRoot::Frontend)] = frontend;
    roots[static_cast<u32>(TmaRoot::Backend)] = backend;
    roots[static_cast<u32>(TmaRoot::MachineClears)] = machine_clears;
    roots[static_cast<u32>(TmaRoot::BranchMispredicts)] =
        branch_mispredicts;
    roots[static_cast<u32>(TmaRoot::Resteers)] = resteers;
    roots[static_cast<u32>(TmaRoot::RecoveryBubbles)] =
        recovery_bubbles;
    roots[static_cast<u32>(TmaRoot::FetchLatency)] = fetch_latency;
    roots[static_cast<u32>(TmaRoot::PcResteer)] = pc_resteer;
    roots[static_cast<u32>(TmaRoot::CoreBound)] = core_bound;
    roots[static_cast<u32>(TmaRoot::MemBound)] = mem_bound;
    roots[static_cast<u32>(TmaRoot::MemBoundL2)] = mem_bound_l2;
    roots[static_cast<u32>(TmaRoot::MemBoundDram)] = mem_bound_dram;
    roots[static_cast<u32>(TmaRoot::Ipc)] = ipc;
}

const TmaFormulaDag &
TmaFormulaDag::instance(bool paper_literal_nfr)
{
    static const TmaFormulaDag labelled(false);
    static const TmaFormulaDag literal(true);
    return paper_literal_nfr ? literal : labelled;
}

// ---------------------------------------------------- double evaluator

std::array<double, kNumTmaRoots>
TmaFormulaDag::evalRoots(const TmaCounters &c,
                         const TmaParams &params) const
{
    double inputs[kNumTmaCounterFields] = {
        static_cast<double>(c.cycles),
        static_cast<double>(c.retiredUops),
        static_cast<double>(c.issuedUops),
        static_cast<double>(c.fetchBubbles),
        static_cast<double>(c.recovering),
        static_cast<double>(c.branchMispredicts),
        static_cast<double>(c.machineClears),
        static_cast<double>(c.fencesRetired),
        static_cast<double>(c.icacheBlocked),
        static_cast<double>(c.dcacheBlocked),
        static_cast<double>(c.dcacheBlockedDram),
    };

    // Nodes are appended children-first, so one forward pass computes
    // every shared subexpression exactly once.
    std::vector<double> value(graph.size(), 0.0);
    for (u32 i = 0; i < graph.size(); i++) {
        const TmaNode &n = graph[i];
        switch (n.op) {
          case TmaOp::Const:
            value[i] = n.value;
            break;
          case TmaOp::Counter:
            value[i] = inputs[static_cast<u32>(n.counter)];
            break;
          case TmaOp::Param:
            value[i] = n.param == TmaParamField::CoreWidth
                           ? static_cast<double>(params.coreWidth)
                           : static_cast<double>(params.recoverLength);
            break;
          case TmaOp::Add:
            value[i] = value[n.a] + value[n.b];
            break;
          case TmaOp::Sub:
            value[i] = value[n.a] - value[n.b];
            break;
          case TmaOp::Mul:
            value[i] = value[n.a] * value[n.b];
            break;
          case TmaOp::SafeDiv:
            value[i] = value[n.b] > 0 ? value[n.a] / value[n.b] : 0.0;
            break;
          case TmaOp::Clamp01:
            value[i] = std::min(1.0, std::max(0.0, value[n.a]));
            break;
          case TmaOp::Min:
            value[i] = std::min(value[n.a], value[n.b]);
            break;
          case TmaOp::Max:
            value[i] = std::max(value[n.a], value[n.b]);
            break;
        }
    }

    std::array<double, kNumTmaRoots> out{};
    for (u32 r = 0; r < kNumTmaRoots; r++)
        out[r] = value[roots[r]];
    return out;
}

// -------------------------------------------------- interval evaluator

namespace
{

/** Interval product treating 0 * inf as 0 (capacity semantics). */
Interval
intervalMulSafe(const Interval &a, const Interval &b)
{
    auto prod = [](double x, double y) -> double {
        if (x == 0.0 || y == 0.0)
            return 0.0;
        return x * y;
    };
    const double p1 = prod(a.lo, b.lo);
    const double p2 = prod(a.lo, b.hi);
    const double p3 = prod(a.hi, b.lo);
    const double p4 = prod(a.hi, b.hi);
    return Interval(std::min(std::min(p1, p2), std::min(p3, p4)),
                    std::max(std::max(p1, p2), std::max(p3, p4)));
}

} // namespace

Interval
TmaFormulaDag::evalInterval(
    u32 node, const std::array<Interval, kNumTmaCounterFields> &domain,
    const TmaParams &params) const
{
    ICICLE_ASSERT(node < graph.size(), "DAG node index out of range");
    std::vector<Interval> value(node + 1);
    for (u32 i = 0; i <= node; i++) {
        const TmaNode &n = graph[i];
        Interval v;
        switch (n.op) {
          case TmaOp::Const:
            v = Interval(n.value);
            break;
          case TmaOp::Counter:
            v = domain[static_cast<u32>(n.counter)];
            break;
          case TmaOp::Param:
            v = Interval(
                n.param == TmaParamField::CoreWidth
                    ? static_cast<double>(params.coreWidth)
                    : static_cast<double>(params.recoverLength));
            break;
          case TmaOp::Add:
            v = value[n.a] + value[n.b];
            break;
          case TmaOp::Sub:
            v = value[n.a] - value[n.b];
            break;
          case TmaOp::Mul:
            v = intervalMulSafe(value[n.a], value[n.b]);
            break;
          case TmaOp::SafeDiv: {
            const Interval &num = value[n.a];
            const Interval &den = value[n.b];
            if (den.hi <= 0) {
                // The guard forces the 0-divisor branch everywhere.
                v = Interval(0.0);
            } else if (den.lo > 0) {
                v = num / den;
                // The guard can still select 0 pointwise only when
                // den can be 0, which den.lo > 0 excludes.
            } else if (n.known01) {
                v = Interval(0.0, 1.0);
            } else {
                // Unbounded quotient; conservative.
                v = Interval(
                    0.0, std::numeric_limits<double>::infinity());
                if (num.hi <= 0 && num.lo >= 0)
                    v = Interval(0.0);
            }
            break;
          }
          case TmaOp::Clamp01:
            v = intervalClamp01(value[n.a]);
            break;
          case TmaOp::Min:
            v = intervalMin(value[n.a], value[n.b]);
            break;
          case TmaOp::Max:
            v = intervalMax(value[n.a], value[n.b]);
            break;
        }
        if (n.known01) {
            v = Interval(std::max(v.lo, 0.0), std::min(v.hi, 1.0));
            if (v.hi < v.lo)
                v = Interval(0.0, 1.0);
        }
        value[i] = v;
    }
    return value[node];
}

std::string
TmaFormulaDag::describe(u32 node) const
{
    ICICLE_ASSERT(node < graph.size(), "DAG node index out of range");
    const TmaNode &n = graph[node];
    auto child = [this](u32 i) -> std::string {
        const TmaNode &c = graph[i];
        if (c.label[0] != '\0')
            return c.label;
        return describe(i);
    };
    std::ostringstream os;
    switch (n.op) {
      case TmaOp::Const: os << n.value; break;
      case TmaOp::Counter:
        os << kFieldNames[static_cast<u32>(n.counter)];
        break;
      case TmaOp::Param:
        os << (n.param == TmaParamField::CoreWidth ? "W_C" : "M_rl");
        break;
      case TmaOp::Add:
        os << "(" << child(n.a) << " + " << child(n.b) << ")";
        break;
      case TmaOp::Sub:
        os << "(" << child(n.a) << " - " << child(n.b) << ")";
        break;
      case TmaOp::Mul:
        os << "(" << child(n.a) << " * " << child(n.b) << ")";
        break;
      case TmaOp::SafeDiv:
        os << "(" << child(n.a) << " / " << child(n.b) << ")";
        break;
      case TmaOp::Clamp01:
        os << "clamp01(" << child(n.a) << ")";
        break;
      case TmaOp::Min:
        os << "min(" << child(n.a) << ", " << child(n.b) << ")";
        break;
      case TmaOp::Max:
        os << "max(" << child(n.a) << ", " << child(n.b) << ")";
        break;
    }
    return os.str();
}

// ----------------------------------------------------------- utilities

std::array<Interval, kNumTmaCounterFields>
tmaAdmissibleDomain(const TmaParams &params, u64 max_cycles)
{
    const double c = static_cast<double>(max_cycles);
    const double w = static_cast<double>(params.coreWidth);
    std::array<Interval, kNumTmaCounterFields> domain;
    domain[static_cast<u32>(TmaCounterField::Cycles)] = Interval(1, c);
    // Slot-class events: up to W_C sources per cycle, issue up to
    // W_I <= 4 W_C (Table IV: SmallBoom issues 3 uops at W_C = 1);
    // cycle-condition events at most one. The TMA lint samples this
    // same domain.
    domain[static_cast<u32>(TmaCounterField::RetiredUops)] =
        Interval(0, w * c);
    domain[static_cast<u32>(TmaCounterField::IssuedUops)] =
        Interval(0, 4.0 * w * c);
    domain[static_cast<u32>(TmaCounterField::FetchBubbles)] =
        Interval(0, w * c);
    domain[static_cast<u32>(TmaCounterField::Recovering)] =
        Interval(0, c);
    domain[static_cast<u32>(TmaCounterField::BranchMispredicts)] =
        Interval(0, c);
    domain[static_cast<u32>(TmaCounterField::MachineClears)] =
        Interval(0, c);
    domain[static_cast<u32>(TmaCounterField::FencesRetired)] =
        Interval(0, c);
    domain[static_cast<u32>(TmaCounterField::ICacheBlocked)] =
        Interval(0, c);
    domain[static_cast<u32>(TmaCounterField::DCacheBlocked)] =
        Interval(0, w * c);
    domain[static_cast<u32>(TmaCounterField::DCacheBlockedDram)] =
        Interval(0, w * c);
    return domain;
}

double
tmaRootValue(const TmaResult &r, TmaRoot root)
{
    switch (root) {
      case TmaRoot::Retiring: return r.retiring;
      case TmaRoot::BadSpeculation: return r.badSpeculation;
      case TmaRoot::Frontend: return r.frontend;
      case TmaRoot::Backend: return r.backend;
      case TmaRoot::MachineClears: return r.machineClears;
      case TmaRoot::BranchMispredicts: return r.branchMispredicts;
      case TmaRoot::Resteers: return r.resteers;
      case TmaRoot::RecoveryBubbles: return r.recoveryBubbles;
      case TmaRoot::FetchLatency: return r.fetchLatency;
      case TmaRoot::PcResteer: return r.pcResteer;
      case TmaRoot::CoreBound: return r.coreBound;
      case TmaRoot::MemBound: return r.memBound;
      case TmaRoot::MemBoundL2: return r.memBoundL2;
      case TmaRoot::MemBoundDram: return r.memBoundDram;
      case TmaRoot::Ipc: return r.ipc;
      default: panic("unknown TMA root");
    }
}

} // namespace icicle
