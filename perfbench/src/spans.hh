/**
 * @file
 * In-memory spans for the traced benchmark run.
 *
 * The benchmark records a span around each call it makes into a
 * layer of the program: its layer name, the operation it belongs to
 * (grid point or request id), its parent span, and its start and end
 * in seconds since the process's span epoch. Spans stay in memory
 * while the workload runs and are written as JSON lines at exit.
 *
 * Two pieces of arithmetic turn spans into per-layer metrics, and
 * both are unit-tested: a span's self time (its duration minus the
 * part of its interval its children cover), and the unattributed
 * share of a total that its measured parts do not explain.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace perfbench
{

/** Parent index of a root span. */
constexpr icicle::i64 kNoParent = -1;

struct Span
{
    std::string layer;
    /** The grid point or request this span belongs to. */
    icicle::u64 id = 0;
    /** Index of the parent span in the same log, or kNoParent. */
    icicle::i64 parent = kNoParent;
    double start = 0;
    double end = 0;

    double duration() const { return end - start; }
};

/** One thread's spans; merge() joins logs at the end of a run. */
class SpanLog
{
  public:
    /** Record a finished span; returns its index (a parent handle). */
    icicle::i64 add(const std::string &layer, icicle::u64 id,
                    icicle::i64 parent, double start, double end);

    /** Set the end of a span added before its children finished. */
    void finish(icicle::i64 index, double end);

    /** Append another log's spans, rebasing their parent indices. */
    void merge(const SpanLog &other);

    const std::vector<Span> &spans() const { return entries; }

  private:
    std::vector<Span> entries;
};

/**
 * Self time of every span: its duration minus the union of its
 * children's intervals, each clipped to the parent's interval.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/**
 * Share of `total` that `attributed` leaves unexplained:
 * (total - attributed) / total. Negative when the parts, measured
 * separately, add up to more than the total; 0 for a zero total.
 */
double unattributedShare(double total, double attributed);

/** Write spans (with self times) as JSON lines; fatal() on error. */
void writeSpans(const std::vector<Span> &spans,
                const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
