/**
 * @file
 * Tiny interval-arithmetic library behind the formula DAG's interval
 * evaluator (tma/formula.hh), which bounds every TMA root for the
 * PROVE-R4 derivation and REF-003.
 *
 * The Table II formula set is evaluated once over *intervals* that
 * describe the whole admissible counter domain (e.g. fetch-bubble
 * slots lie in [0, W_C * cycles], recovering cycles in [0, cycles]).
 * If an invariant holds for the interval result it holds for every
 * concrete counter reading, which upgrades the model's comments
 * ("classes sum to one") into a machine-checked proof.
 *
 * Only the operations the Table II formulas need are implemented:
 * +, -, *, / (divisor bounded away from zero), clamp01, min, max.
 * All operations are conservative (the result interval contains every
 * pointwise result) but not necessarily tight under correlated
 * operands — fine for proving invariants, which only needs soundness.
 *
 * The constraint-derivation engine (analysis/constraints.hh) adds one
 * more need served here: saturating u64 arithmetic for counter-width
 * bounds (hpm counters are 48 bits wide; a derived slot capacity like
 * sources * cycles must clamp instead of silently wrapping).
 */

#ifndef ICICLE_ANALYSIS_INTERVAL_HH
#define ICICLE_ANALYSIS_INTERVAL_HH

#include <algorithm>

#include "common/logging.hh"
#include "common/types.hh"

namespace icicle
{

/** A closed interval [lo, hi] of reals. */
struct Interval
{
    double lo = 0;
    double hi = 0;

    constexpr Interval() = default;
    constexpr Interval(double point) : lo(point), hi(point) {}
    constexpr Interval(double lo, double hi) : lo(lo), hi(hi) {}

    bool valid() const { return lo <= hi; }
};

inline Interval
operator+(const Interval &a, const Interval &b)
{
    return Interval(a.lo + b.lo, a.hi + b.hi);
}

inline Interval
operator-(const Interval &a, const Interval &b)
{
    return Interval(a.lo - b.hi, a.hi - b.lo);
}

inline Interval
operator*(const Interval &a, const Interval &b)
{
    const double p1 = a.lo * b.lo;
    const double p2 = a.lo * b.hi;
    const double p3 = a.hi * b.lo;
    const double p4 = a.hi * b.hi;
    return Interval(std::min(std::min(p1, p2), std::min(p3, p4)),
                    std::max(std::max(p1, p2), std::max(p3, p4)));
}

/** Division; the divisor interval must not straddle or touch zero. */
inline Interval
operator/(const Interval &a, const Interval &b)
{
    ICICLE_ASSERT(b.lo > 0 || b.hi < 0,
                  "interval division by a range containing zero");
    const double p1 = a.lo / b.lo;
    const double p2 = a.lo / b.hi;
    const double p3 = a.hi / b.lo;
    const double p4 = a.hi / b.hi;
    return Interval(std::min(std::min(p1, p2), std::min(p3, p4)),
                    std::max(std::max(p1, p2), std::max(p3, p4)));
}

inline Interval
intervalMin(const Interval &a, const Interval &b)
{
    return Interval(std::min(a.lo, b.lo), std::min(a.hi, b.hi));
}

inline Interval
intervalMax(const Interval &a, const Interval &b)
{
    return Interval(std::max(a.lo, b.lo), std::max(a.hi, b.hi));
}

/** Image of the interval under x -> min(1, max(0, x)). */
inline Interval
intervalClamp01(const Interval &a)
{
    return Interval(std::clamp(a.lo, 0.0, 1.0),
                    std::clamp(a.hi, 0.0, 1.0));
}

// ---- saturating u64 arithmetic (counter-width bounds) ----------------
//
// Derived capacities like `sources * max_cycles` routinely exceed
// 2^64 for architectural run lengths; the derivation engine needs
// them to clamp at the type maximum, never wrap, so a width bound is
// always conservative.

constexpr u64 kU64Max = ~0ull;

inline u64
satAddU64(u64 a, u64 b)
{
    const u64 sum = a + b;
    return sum < a ? kU64Max : sum;
}

inline u64
satMulU64(u64 a, u64 b)
{
    if (a == 0 || b == 0)
        return 0;
    if (a > kU64Max / b)
        return kU64Max;
    return a * b;
}

} // namespace icicle

#endif // ICICLE_ANALYSIS_INTERVAL_HH
