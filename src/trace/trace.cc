#include "trace/trace.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/logging.hh"
#include "core/dispatch.hh"

namespace icicle
{

namespace
{

/** Set bits of `mask` summed over words [begin, end). */
u64
countMasked(const std::vector<u64> &words, u64 mask, u64 begin, u64 end)
{
    if (mask == 0)
        return 0;
    u64 total = 0;
    for (u64 c = begin; c < end; c++)
        total += static_cast<u64>(std::popcount(words[c] & mask));
    return total;
}

/** Contiguous runs of cycles where any bit of `mask` is set. */
std::vector<SignalRun>
runsOfMask(const std::vector<u64> &words, u64 mask)
{
    std::vector<SignalRun> runs;
    if (mask == 0)
        return runs;
    bool in_run = false;
    u64 start = 0;
    for (u64 c = 0; c < words.size(); c++) {
        const bool high = (words[c] & mask) != 0;
        if (high && !in_run) {
            in_run = true;
            start = c;
        } else if (!high && in_run) {
            runs.push_back(SignalRun{start, c - start});
            in_run = false;
        }
    }
    if (in_run)
        runs.push_back(SignalRun{start, words.size() - start});
    return runs;
}

/** An OnlineAnalyzer fed every word of a trace. */
OnlineAnalyzer
analyzeWords(const Trace &trace, u32 pad)
{
    OnlineAnalyzer analyzer(trace.spec(), pad);
    for (u64 word : trace.raw())
        analyzer.feed(word);
    return analyzer;
}

/** Single-bit mask of a traced (event, lane), or 0 if untraced. */
u64
laneMask(const TraceSpec &spec, EventId event, u8 lane)
{
    const int field = spec.indexOf(event, lane);
    return field < 0 ? 0 : 1ull << field;
}

} // namespace

// ---------------------------------------------------------- TraceSpec

void
TraceSpec::addEvent(const Core &core, EventId event)
{
    const u32 sources = core.bus().sourcesOf(event);
    for (u32 s = 0; s < sources; s++)
        addLane(event, static_cast<u8>(s));
}

void
TraceSpec::addLane(EventId event, u8 lane)
{
    if (indexOf(event, lane) >= 0)
        return;
    if (fields.size() >= 64)
        fatal("trace bundle limited to 64 signals");
    fields.push_back(TraceField{event, lane});
}

int
TraceSpec::indexOf(EventId event, u8 lane) const
{
    for (u32 f = 0; f < fields.size(); f++) {
        if (fields[f].event == event && fields[f].lane == lane)
            return static_cast<int>(f);
    }
    return -1;
}

u64
TraceSpec::fieldMask(EventId event) const
{
    u64 mask = 0;
    for (u32 f = 0; f < fields.size(); f++) {
        if (fields[f].event == event)
            mask |= 1ull << f;
    }
    return mask;
}

TraceSpec
TraceSpec::tmaBundle(const Core &core)
{
    TraceSpec spec;
    spec.addEvent(core, EventId::Cycles);
    if (core.kind() == CoreKind::Boom) {
        spec.addEvent(core, EventId::UopsIssued);
        spec.addEvent(core, EventId::UopsRetired);
    } else {
        spec.addEvent(core, EventId::InstIssued);
        spec.addEvent(core, EventId::InstRetired);
    }
    spec.addEvent(core, EventId::FetchBubbles);
    spec.addEvent(core, EventId::Recovering);
    spec.addEvent(core, EventId::BranchMispredict);
    spec.addEvent(core, EventId::Flush);
    spec.addEvent(core, EventId::FenceRetired);
    spec.addEvent(core, EventId::ICacheMiss);
    spec.addEvent(core, EventId::ICacheBlocked);
    spec.addEvent(core, EventId::DCacheBlocked);
    return spec;
}

TraceSpec
TraceSpec::frontendBundle()
{
    // The six performance-critical frontend signals of Fig. 3.
    TraceSpec spec;
    spec.addLane(EventId::ICacheMiss, 0);
    spec.addLane(EventId::ICacheBlocked, 0);
    spec.addLane(EventId::IBufValid, 0);
    spec.addLane(EventId::IBufReady, 0);
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::FetchBubbles, 0);
    return spec;
}

// -------------------------------------------------------------- Trace

TracePacker::TracePacker(const TraceSpec &spec)
{
    for (u32 f = 0; f < spec.fields.size(); f++) {
        const TraceField &field = spec.fields[f];
        if (!segments.empty()) {
            Segment &last = segments.back();
            const u32 len =
                static_cast<u32>(std::popcount(last.laneMask));
            if (field.event == last.event &&
                field.lane == last.laneStart + len) {
                last.laneMask =
                    static_cast<u16>((last.laneMask << 1) | 1);
                continue;
            }
        }
        Segment seg;
        seg.event = field.event;
        seg.laneStart = field.lane;
        seg.fieldBase = static_cast<u8>(f);
        seg.laneMask = 1;
        segments.push_back(seg);
    }
}

bool
Trace::high(u64 cycle, EventId event, u8 lane) const
{
    const int field = traceSpec.indexOf(event, lane);
    if (field < 0)
        return false;
    return bit(cycle, static_cast<u32>(field));
}

u64
Trace::count(EventId event, u8 lane) const
{
    return countMasked(records, laneMask(traceSpec, event, lane), 0,
                       records.size());
}

u64
Trace::countAllLanes(EventId event) const
{
    return countMasked(records, traceSpec.fieldMask(event), 0,
                       records.size());
}

Trace
traceRun(Core &core, const TraceSpec &spec, u64 max_cycles)
{
    Trace trace(spec);
    runCoreLoop(core, max_cycles, [&trace](Cycle, const EventBus &bus) {
        trace.capture(bus);
    });
    return trace;
}

u64
clampTraceWindow(u64 num_cycles, u64 begin, u64 end, const char *what)
{
    if (num_cycles == 0)
        fatal(what, ": trace has no cycles");
    if (begin >= num_cycles)
        fatal(what, ": window begins at cycle ", begin,
              " but the trace ends at cycle ", num_cycles);
    end = std::min(end, num_cycles);
    if (begin >= end)
        fatal(what, ": empty window [", begin, ", ", end, ")");
    return end;
}

TmaResult
windowTmaOf(u64 num_cycles, u64 begin, u64 end, u32 core_width,
            const char *what, const WindowCounter &count)
{
    if (core_width == 0)
        fatal(what, ": core width must be at least 1");
    end = clampTraceWindow(num_cycles, begin, end, what);
    // A trace carries one core's events, so each input counts both
    // cores' events for its field; the absent one counts zero.
    TmaCounters counters;
    counters.cycles = end - begin;
    for (const TmaInput &in : kTmaInputs) {
        counters.*in.field = count(in.boom, begin, end);
        if (in.rocket != in.boom)
            counters.*in.field += count(in.rocket, begin, end);
    }
    TmaParams params;
    params.coreWidth = core_width;
    return computeTma(counters, params);
}

// ------------------------------------------------------ TraceAnalyzer

std::vector<SignalRun>
TraceAnalyzer::runsOf(EventId event, u8 lane) const
{
    return runsOfMask(trace.raw(), laneMask(trace.spec(), event, lane));
}

OnlineAnalyzer::OnlineAnalyzer(const TraceSpec &spec, u32 pad_cycles)
    : bubbleMask(spec.fieldMask(EventId::FetchBubbles)),
      refillMask(spec.fieldMask(EventId::ICacheBlocked)),
      recoveringMask(spec.fieldMask(EventId::Recovering)),
      pad(pad_cycles)
{
}

void
OnlineAnalyzer::feed(u64 word, u64 count)
{
    // Once pad + 1 cycles of the span are in, the delay line holds
    // only this word's bubbles and each further cycle settles a cycle
    // of the span itself, so the rest is counted in closed form.
    const u64 lead = std::min<u64>(count, pad + 1);
    for (u64 c = 0; c < lead; c++)
        feed(word);
    const u64 rest = count - lead;
    if (rest == 0)
        return;
    const i64 first = static_cast<i64>(fed);
    const i64 last = first + static_cast<i64>(rest) - 1;
    const u64 bubbles = static_cast<u64>(std::popcount(word & bubbleMask));
    bubbleSlots += bubbles * rest;
    if (word & refillMask)
        lastRefill = last;
    if (word & recoveringMask) {
        // The run opened by the lead stays open.
        recoveringCycles += rest;
        lastRecovery = last;
    }
    // The span settles cycles [first - pad, last - pad]. A window whose
    // signal is high all span covers each of them; otherwise it ends
    // pad cycles after the signal was last high.
    const i64 reach = static_cast<i64>(pad);
    const i64 lo = first - reach;
    const i64 hi = std::min({last - reach, lastRefill + reach,
                             lastRecovery + reach});
    if (hi >= lo)
        overlapSlots += bubbles * static_cast<u64>(hi - lo + 1);
    head = (head + rest) % (pad + 1);
    fed += rest;
}

OverlapBound
OnlineAnalyzer::overlapBound(u32 core_width) const
{
    OverlapBound result;
    result.cycles = fed;
    if (fed == 0)
        return result;
    // Settle the last pad cycles: every cycle they could reach has
    // been fed.
    u64 overlap_slots = overlapSlots;
    for (u64 c = fed > pad ? fed - pad : 0; c < fed; c++) {
        if (inBothWindows(static_cast<i64>(c)))
            overlap_slots += delay[c % (pad + 1)];
    }

    // Any fetch-bubble slot inside an overlap window could count
    // toward either Frontend or Bad Speculation.
    const double total_slots = static_cast<double>(fed) * core_width;
    result.overlapSlots = overlap_slots;
    result.overlapFraction =
        static_cast<double>(overlap_slots) / total_slots;
    result.frontendFraction =
        static_cast<double>(bubbleSlots) / total_slots;
    result.badSpecFraction =
        static_cast<double>(recoveringCycles) * core_width /
        total_slots;
    if (result.frontendFraction > 0) {
        result.frontendPerturbation =
            result.overlapFraction / result.frontendFraction;
    }
    if (result.badSpecFraction > 0) {
        result.badSpecPerturbation =
            result.overlapFraction / result.badSpecFraction;
    }
    return result;
}

RecoveryCdf
OnlineAnalyzer::recoveryCdf() const
{
    std::map<u64, u64> lengths = runLengths;
    if (runOpen())
        lengths[fed - runStart]++;
    RecoveryCdf cdf;
    for (const auto &[length, count] : lengths)
        cdf.lengths.insert(cdf.lengths.end(), count, length);
    return cdf;
}

u64
OnlineAnalyzer::recoverySequences() const
{
    u64 sequences = runOpen() ? 1 : 0;
    for (const auto &[length, count] : runLengths)
        sequences += count;
    return sequences;
}

OverlapBound
TraceAnalyzer::overlapUpperBound(u32 core_width, u32 pad) const
{
    return analyzeWords(trace, pad).overlapBound(core_width);
}

RecoveryCdf
TraceAnalyzer::recoveryCdf() const
{
    return analyzeWords(trace, 0).recoveryCdf();
}

u64
RecoveryCdf::percentile(double fraction) const
{
    if (lengths.empty())
        return 0;
    const u64 index = static_cast<u64>(
        fraction * static_cast<double>(lengths.size() - 1) + 0.5);
    return lengths[std::min<u64>(index, lengths.size() - 1)];
}

u64
RecoveryCdf::mode() const
{
    if (lengths.empty())
        return 0;
    std::map<u64, u64> histogram;
    for (u64 length : lengths)
        histogram[length]++;
    u64 best = lengths[0];
    u64 best_count = 0;
    for (const auto &[length, count] : histogram) {
        if (count > best_count) {
            best = length;
            best_count = count;
        }
    }
    return best;
}

TmaResult
TraceAnalyzer::windowTma(u64 begin, u64 end, u32 core_width) const
{
    // Each event's field mask is resolved once per window, then the
    // packed words are popcounted: no per-field indexOf() per cycle.
    return windowTmaOf(trace.numCycles(), begin, end, core_width,
                       "TraceAnalyzer::windowTma",
                       [this](EventId event, u64 lo, u64 hi) {
                           return countMasked(trace.raw(),
                                              trace.spec().fieldMask(event),
                                              lo, hi);
                       });
}

std::string
TraceAnalyzer::plot(u64 begin, u64 end) const
{
    end = clampTraceWindow(trace.numCycles(), begin, end,
                           "TraceAnalyzer::plot");
    std::ostringstream os;
    char label[64];
    for (u32 f = 0; f < trace.spec().numFields(); f++) {
        const TraceField &field = trace.spec().fields[f];
        std::snprintf(label, sizeof(label), "%18s[%u] |",
                      eventName(field.event), field.lane);
        os << label;
        for (u64 c = begin; c < end; c++)
            os << (trace.bit(c, f) ? '*' : '.');
        os << "|\n";
    }
    return os.str();
}

} // namespace icicle
