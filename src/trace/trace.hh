/**
 * @file
 * Microarchitectural event tracing (Icicle's TraceRV extension,
 * §IV-C) and the temporal TMA analyzer (§V-B).
 *
 * A TraceSpec selects which (event, lane) signals to record; the
 * tracer packs one bit per signal per simulated cycle, exactly like
 * the customized TraceRV bridge streams dynamic signals per cycle
 * instead of instruction data. Traces are kept in memory or written
 * to an .icst store (src/store/), and the analyzer recomputes
 * counter values, temporal TMA windows, class-overlap upper bounds
 * (Table VI), and recovery-sequence CDFs (Fig. 8b). The last two are
 * computed online (OnlineAnalyzer), so a live capture can analyze
 * without keeping its trace.
 */

#ifndef ICICLE_TRACE_TRACE_HH
#define ICICLE_TRACE_TRACE_HH

#include <bit>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/core.hh"
#include "pmu/event.hh"
#include "tma/tma.hh"

namespace icicle
{

/** One traced signal: an event source bit. */
struct TraceField
{
    EventId event;
    u8 lane = 0;

    bool
    operator==(const TraceField &other) const
    {
        return event == other.event && lane == other.lane;
    }
};

/** The set of signals a trace records. */
struct TraceSpec
{
    std::vector<TraceField> fields;

    /** Add every lane of an event on the given core. */
    void addEvent(const Core &core, EventId event);
    /** Add a single lane. */
    void addLane(EventId event, u8 lane);
    /** Bit position of a field, or -1 if absent. */
    int indexOf(EventId event, u8 lane = 0) const;
    /**
     * Packed-word bitmask covering every traced lane of an event
     * (0 if the event is not traced). Resolving this once per query
     * lets analyzers scan the raw words directly instead of paying a
     * linear indexOf() per field per cycle.
     */
    u64 fieldMask(EventId event) const;
    u32 numFields() const
    { return static_cast<u32>(fields.size()); }

    /** Default TMA bundle for a core (the signals §V-B uses). */
    static TraceSpec tmaBundle(const Core &core);
    /** The §III frontend-motivation bundle (Fig. 3 signals). */
    static TraceSpec frontendBundle();
};

/**
 * Precompiled packer for a TraceSpec: bit f of a packed word mirrors
 * field f of the spec. Contiguous lanes of the same event (the common
 * case — addEvent() adds lanes 0..n-1 in order) collapse into one
 * shift-and-mask segment, so packing a cycle costs a few ALU ops per
 * *event* instead of a branch per *field*. Shared by in-memory
 * capture and the streaming consumer (TraceSink, src/store/), so both
 * record identical bits.
 */
class TracePacker
{
  public:
    explicit TracePacker(const TraceSpec &spec);

    /** Pack the current bus state into one trace word. */
    u64
    pack(const EventBus &bus) const
    {
        u64 word = 0;
        for (const Segment &seg : segments) {
            const u64 lanes =
                (static_cast<u64>(bus.mask(seg.event)) >> seg.laneStart) &
                seg.laneMask;
            word |= lanes << seg.fieldBase;
        }
        return word;
    }

  private:
    struct Segment
    {
        EventId event;
        u8 laneStart = 0;
        u8 fieldBase = 0;
        /** Ones-mask of the segment's lane count (applied post-shift). */
        u16 laneMask = 0;
    };
    std::vector<Segment> segments;
};

/** An in-memory trace: one word of packed bits per cycle. */
class Trace
{
  public:
    explicit Trace(const TraceSpec &spec)
        : traceSpec(spec), packer(spec)
    {
    }

    const TraceSpec &spec() const { return traceSpec; }
    u64 numCycles() const { return records.size(); }

    /** Sample the bus (call once per cycle). */
    void
    capture(const EventBus &bus)
    {
        records.push_back(packer.pack(bus));
    }

    /** Is field f high at cycle c? */
    bool
    bit(u64 cycle, u32 field) const
    {
        return (records[cycle] >> field) & 1;
    }

    /** Is (event, lane) high at cycle c? (false if not traced) */
    bool high(u64 cycle, EventId event, u8 lane = 0) const;

    /** Number of cycles where the field is high. */
    u64 count(EventId event, u8 lane = 0) const;
    /** Sum over all traced lanes of the event. */
    u64 countAllLanes(EventId event) const;

    const std::vector<u64> &raw() const { return records; }
    void append(u64 word) { records.push_back(word); }
    /** Drop all captured cycles; keeps capacity (and the spec). */
    void clear() { records.clear(); }

    /**
     * Write this trace as a compressed .icst store (src/store/).
     * block_cycles 0 selects the default block size. Only bits below
     * numFields() are representable; capture never sets others.
     */
    void toStore(const std::string &path, u32 block_cycles = 0) const;
    /** Load an .icst store fully into memory. */
    static Trace fromStore(const std::string &path);

  private:
    TraceSpec traceSpec;
    TracePacker packer;
    std::vector<u64> records;
};

/**
 * Attach a tracer to a core run. Returns the captured trace:
 *
 *   Trace t = traceRun(core, TraceSpec::tmaBundle(core), 1'000'000);
 */
Trace traceRun(Core &core, const TraceSpec &spec, u64 max_cycles);

/**
 * Validate a [begin, end) cycle window against a trace length:
 * fatal() on zero-cycle traces, a begin at or past the end of the
 * trace, or an empty window. Clamps end to num_cycles and returns
 * the clamped end. `what` names the caller in error messages.
 */
u64 clampTraceWindow(u64 num_cycles, u64 begin, u64 end,
                     const char *what);

/** Count the set bits of one event's lanes over cycles [begin, end). */
using WindowCounter = std::function<u64(EventId event, u64 begin, u64 end)>;

/**
 * Temporal TMA over a [begin, end) window of a trace num_cycles long:
 * the Table II model applied to per-event counts from `count`. The
 * in-memory analyzer counts by scanning words, StoreReader from block
 * footers; both go through here, so they validate and map counts to
 * TmaCounters identically. The window is validated with
 * clampTraceWindow(), and a core width of 0 is a fatal() error (it
 * would otherwise report zero slots as an all-zero breakdown).
 */
TmaResult windowTmaOf(u64 num_cycles, u64 begin, u64 end, u32 core_width,
                      const char *what, const WindowCounter &count);

// --------------------------------------------------------------------
// Temporal TMA analysis
// --------------------------------------------------------------------

/** A contiguous run of cycles where a signal was high. */
struct SignalRun
{
    u64 start = 0;
    u64 length = 0;
};

/** Result of the Table VI overlap upper-bound analysis. */
struct OverlapBound
{
    /** Cycles analyzed. */
    u64 cycles = 0;
    /** Slots in windows where I$-refill and Recovering overlap. */
    u64 overlapSlots = 0;
    /** Fraction of total slots that may be misclassified. */
    double overlapFraction = 0;
    /** Frontend fraction measured from the trace. */
    double frontendFraction = 0;
    /** Bad-speculation (recovering) fraction from the trace. */
    double badSpecFraction = 0;
    /** Worst-case perturbation of the Frontend class (±). */
    double frontendPerturbation = 0;
    /** Worst-case perturbation of Bad Speculation (±). */
    double badSpecPerturbation = 0;
};

/** Cumulative distribution of recovery-sequence lengths (Fig. 8b). */
struct RecoveryCdf
{
    /** Sorted sequence lengths. */
    std::vector<u64> lengths;

    u64 sequences() const
    { return static_cast<u64>(lengths.size()); }
    /** Length at a given cumulative fraction (0..1). */
    u64 percentile(double fraction) const;
    /** Most common length (the paper finds 4). */
    u64 mode() const;
    u64 max() const { return lengths.empty() ? 0 : lengths.back(); }
};

/** Table VI's rolling-window pad, in cycles. */
constexpr u32 kOverlapPad = 50;

/**
 * The Table VI overlap bound and the Fig. 8b recovery lengths,
 * computed exactly from a stream of packed words, one per cycle, in
 * memory that does not grow with the trace. TraceAnalyzer feeds it a
 * Trace's words; TraceSink (src/store/) feeds it live.
 *
 * Recovery runs (Recovering high on any traced lane) are counted, and
 * their lengths recorded, when each run closes. For the overlap
 * bound, cycle c lies inside a padded refill window exactly when some
 * I$-blocked cycle (any lane) lies in [c - pad, c + pad], and inside
 * a padded recovery window likewise, so both of c's flags are final
 * once cycle c + pad has been fed. The analyzer keeps the last refill
 * and recovery cycles seen and a delay line of the last pad + 1
 * fetch-bubble popcounts, and settles cycle c when cycle c + pad
 * arrives. Queries settle the last pad cycles on the fly, so they
 * answer for whatever prefix has been fed.
 */
class OnlineAnalyzer
{
  public:
    explicit OnlineAnalyzer(const TraceSpec &spec,
                            u32 pad_cycles = kOverlapPad);

    /** Consume the next cycle's packed word. */
    void
    feed(u64 word)
    {
        const i64 now = static_cast<i64>(fed);
        const u8 bubbles =
            static_cast<u8>(std::popcount(word & bubbleMask));
        bubbleSlots += bubbles;
        if (word & refillMask)
            lastRefill = now;
        if (word & recoveringMask) {
            recoveringCycles++;
            if (lastRecovery != now - 1)
                runStart = fed;
            lastRecovery = now;
        } else if (lastRecovery == now - 1) {
            runLengths[fed - runStart]++;
        }
        if (delay.size() <= pad)
            delay.push_back(bubbles);
        else
            delay[head] = bubbles;
        head = head == pad ? 0 : head + 1;
        // delay[head] now holds cycle now - pad, whose windows are
        // final: settle it.
        const i64 settled = now - static_cast<i64>(pad);
        if (settled >= 0 && inBothWindows(settled))
            overlapSlots += delay[head];
        fed++;
    }

    /** Consume `count` cycles of the same word: count feed(word) calls. */
    void feed(u64 word, u64 count);

    /** Table VI bound over the cycles fed so far. */
    OverlapBound overlapBound(u32 core_width) const;
    /** Fig. 8b: every recovery sequence, sorted by length. */
    RecoveryCdf recoveryCdf() const;
    /** Recovery sequences so far (recoveryCdf().sequences()). */
    u64 recoverySequences() const;

  private:
    /** Is cycle c inside a padded refill and a padded recovery window,
     * given every cycle up to min(c + pad, fed - 1)? */
    bool
    inBothWindows(i64 c) const
    {
        const i64 reach = static_cast<i64>(pad);
        return lastRefill + reach >= c && lastRecovery + reach >= c;
    }
    /** A recovery run is open at the last fed cycle. */
    bool runOpen() const
    { return fed > 0 && lastRecovery == static_cast<i64>(fed) - 1; }

    /** Before any refill or recovery cycle: out of every window. */
    static constexpr i64 kNever = INT64_MIN / 2;

    u64 bubbleMask;
    u64 refillMask;
    u64 recoveringMask;
    u64 pad;
    u64 fed = 0;
    i64 lastRefill = kNever;
    i64 lastRecovery = kNever;
    u64 runStart = 0;
    /** Closed recovery runs: length -> count. */
    std::map<u64, u64> runLengths;
    /** Fetch-bubble popcounts of the last pad + 1 cycles. */
    std::vector<u8> delay;
    u64 head = 0;
    u64 bubbleSlots = 0;
    u64 recoveringCycles = 0;
    /** Overlap slots of the settled cycles [0, fed - pad). */
    u64 overlapSlots = 0;
};

/** The trace analyzer: applies temporal TMA to raw trace data. */
class TraceAnalyzer
{
  public:
    explicit TraceAnalyzer(const Trace &trace) : trace(trace) {}

    /** Contiguous high-runs of a signal. */
    std::vector<SignalRun> runsOf(EventId event, u8 lane = 0) const;

    /** Table VI: OnlineAnalyzer::overlapBound over the trace. */
    OverlapBound overlapUpperBound(u32 core_width,
                                   u32 pad = kOverlapPad) const;

    /** Fig. 8b: OnlineAnalyzer::recoveryCdf over the trace. */
    RecoveryCdf recoveryCdf() const;

    /**
     * Temporal TMA over a cycle window: recompute counter values from
     * trace bits and apply the Table II model (windowTmaOf). An empty
     * window, a begin at or past the trace end, a zero-cycle trace or
     * a zero core width is a fatal() error, not a silently empty
     * result.
     */
    TmaResult windowTma(u64 begin, u64 end, u32 core_width) const;

    /**
     * Render a Fig. 3 style ASCII dot plot of the traced signals over
     * [begin, end), one row per signal. Window validation as in
     * windowTma (end is clamped; empty windows are fatal).
     */
    std::string plot(u64 begin, u64 end) const;

  private:
    const Trace &trace;
};

} // namespace icicle

#endif // ICICLE_TRACE_TRACE_HH
