/**
 * @file
 * Trace infrastructure tests: bundle capture fidelity (trace counts
 * equal live counter totals — the property Icicle's validation relies
 * on), binary round-trips, run detection, recovery CDFs, overlap
 * bounds (the online analyzer against a brute-force reference), and
 * windowed temporal TMA.
 */

#include <algorithm>
#include <bit>
#include <cstdio>
#include <gtest/gtest.h>

#include "boom/boom.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/session.hh"
#include "isa/builder.hh"
#include "rocket/rocket.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace icicle
{
namespace
{

using namespace reg;

Program
branchyLoop(u64 iterations)
{
    ProgramBuilder b("branchy");
    Label loop = b.newLabel(), skip = b.newLabel();
    b.li(s0, 88172645463325252ll);
    b.li(t2, static_cast<i64>(iterations));
    b.bind(loop);
    b.slli(t0, s0, 13);
    b.xor_(s0, s0, t0);
    b.srli(t0, s0, 7);
    b.xor_(s0, s0, t0);
    b.andi(t0, s0, 1);
    b.beqz(t0, skip);
    b.addi(t3, t3, 1);
    b.bind(skip);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.halt();
    return b.build();
}

TEST(TraceSpec, IndexAndDeduplication)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::Recovering, 0); // duplicate ignored
    spec.addLane(EventId::FetchBubbles, 1);
    EXPECT_EQ(spec.numFields(), 2u);
    EXPECT_EQ(spec.indexOf(EventId::Recovering), 0);
    EXPECT_EQ(spec.indexOf(EventId::FetchBubbles, 1), 1);
    EXPECT_EQ(spec.indexOf(EventId::FetchBubbles, 0), -1);
}

TEST(Trace, CountsMatchLiveCounters)
{
    // In-band counters and out-of-band trace sample the same bus:
    // totals must agree exactly.
    BoomCore core(BoomConfig::large(), branchyLoop(2000));
    TraceSpec spec = TraceSpec::tmaBundle(core);
    Trace trace = traceRun(core, spec, 10'000'000);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(trace.numCycles(), core.cycle());
    EXPECT_EQ(trace.countAllLanes(EventId::UopsIssued),
              core.total(EventId::UopsIssued));
    EXPECT_EQ(trace.countAllLanes(EventId::FetchBubbles),
              core.total(EventId::FetchBubbles));
    EXPECT_EQ(trace.count(EventId::Recovering),
              core.total(EventId::Recovering));
    EXPECT_EQ(trace.count(EventId::BranchMispredict),
              core.total(EventId::BranchMispredict));
}

TEST(Trace, BinaryRoundTrip)
{
    RocketCore core(RocketConfig{}, branchyLoop(300));
    Trace trace =
        traceRun(core, TraceSpec::frontendBundle(), 1'000'000);
    const std::string path = "/tmp/icicle_test_trace.icst";
    trace.toStore(path);
    Trace loaded = Trace::fromStore(path);
    ASSERT_EQ(loaded.numCycles(), trace.numCycles());
    ASSERT_EQ(loaded.spec().numFields(), trace.spec().numFields());
    EXPECT_EQ(loaded.raw(), trace.raw());
    std::remove(path.c_str());
}

TEST(Trace, ReadRejectsGarbage)
{
    const std::string path = "/tmp/icicle_bad_trace.icst";
    FILE *f = fopen(path.c_str(), "wb");
    fputs("not a trace", f);
    fclose(f);
    EXPECT_THROW(Trace::fromStore(path), FatalError);
    std::remove(path.c_str());
}

TEST(TraceAnalyzer, RunDetection)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    Trace trace(spec);
    // Pattern: 0 1 1 1 0 0 1 0 1 1
    for (int bit : {0, 1, 1, 1, 0, 0, 1, 0, 1, 1})
        trace.append(static_cast<u64>(bit));
    TraceAnalyzer analyzer(trace);
    const auto runs = analyzer.runsOf(EventId::Recovering);
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0].start, 1u);
    EXPECT_EQ(runs[0].length, 3u);
    EXPECT_EQ(runs[1].start, 6u);
    EXPECT_EQ(runs[1].length, 1u);
    EXPECT_EQ(runs[2].start, 8u);
    EXPECT_EQ(runs[2].length, 2u); // run reaching the end
}

TEST(TraceAnalyzer, RecoveryCdfFromBoom)
{
    BoomCore core(BoomConfig::large(), branchyLoop(3000));
    Trace trace =
        traceRun(core, TraceSpec::tmaBundle(core), 20'000'000);
    ASSERT_TRUE(core.done());
    TraceAnalyzer analyzer(trace);
    const RecoveryCdf cdf = analyzer.recoveryCdf();
    ASSERT_GT(cdf.sequences(), 100u);
    // Fig. 8b: almost every recovery lasts exactly the frontend
    // restart length (4 cycles).
    EXPECT_EQ(cdf.mode(), 4u);
    EXPECT_EQ(cdf.percentile(0.5), 4u);
    EXPECT_GE(cdf.max(), cdf.mode());
}

TEST(TraceAnalyzer, RecoveryCdfPercentiles)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    Trace trace(spec);
    // Three runs: lengths 2, 2, 10.
    for (int bit : {1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0})
        trace.append(static_cast<u64>(bit));
    TraceAnalyzer analyzer(trace);
    const RecoveryCdf cdf = analyzer.recoveryCdf();
    ASSERT_EQ(cdf.sequences(), 3u);
    EXPECT_EQ(cdf.mode(), 2u);
    EXPECT_EQ(cdf.percentile(0.0), 2u);
    EXPECT_EQ(cdf.percentile(1.0), 10u);
}

TEST(TraceAnalyzer, OverlapBoundIsSmallAndConsistent)
{
    BoomCore core(BoomConfig::large(),
                  workloads::icacheStress(64, 80, 3));
    Trace trace =
        traceRun(core, TraceSpec::tmaBundle(core), 20'000'000);
    ASSERT_TRUE(core.done());
    TraceAnalyzer analyzer(trace);
    const OverlapBound bound =
        analyzer.overlapUpperBound(core.coreWidth(), 50);
    EXPECT_EQ(bound.cycles, core.cycle());
    // Overlap slots are a subset of all fetch-bubble slots.
    EXPECT_LE(bound.overlapFraction, bound.frontendFraction + 1e-12);
    EXPECT_GE(bound.overlapFraction, 0.0);
    EXPECT_GE(bound.frontendPerturbation, 0.0);
}

TEST(TraceAnalyzer, OverlapDetectsConstructedOverlap)
{
    TraceSpec spec;
    spec.addLane(EventId::ICacheBlocked, 0);
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::FetchBubbles, 0);
    Trace trace(spec);
    // 300 idle cycles, then an overlap of refill+recovering with
    // bubbles inside.
    for (int c = 0; c < 300; c++)
        trace.append(0);
    for (int c = 0; c < 10; c++)
        trace.append(0b111); // blocked + recovering + bubble
    for (int c = 0; c < 300; c++)
        trace.append(0);
    TraceAnalyzer analyzer(trace);
    const OverlapBound bound = analyzer.overlapUpperBound(1, 50);
    EXPECT_EQ(bound.overlapSlots, 10u);
    EXPECT_GT(bound.overlapFraction, 0.0);
}

// ---- the online analyzer against a brute-force reference -----------

/**
 * Table VI by definition, O(cycles x pad): cycle c is in a padded
 * refill (recovery) window when any I$-blocked (Recovering) lane is
 * high at some cycle of [c - pad, c + pad].
 */
OverlapBound
referenceOverlap(const TraceSpec &spec, const std::vector<u64> &words,
                 u32 core_width, u32 pad)
{
    const u64 refill = spec.fieldMask(EventId::ICacheBlocked);
    const u64 recovering = spec.fieldMask(EventId::Recovering);
    const u64 bubble = spec.fieldMask(EventId::FetchBubbles);
    const u64 n = words.size();
    auto near = [&](u64 c, u64 mask) {
        const u64 lo = c > pad ? c - pad : 0;
        const u64 hi = std::min<u64>(n - 1, c + pad);
        for (u64 r = lo; r <= hi; r++) {
            if (words[r] & mask)
                return true;
        }
        return false;
    };
    u64 overlap = 0, bubbles = 0, recovering_cycles = 0;
    for (u64 c = 0; c < n; c++) {
        const u64 slots = std::popcount(words[c] & bubble);
        bubbles += slots;
        recovering_cycles += (words[c] & recovering) ? 1 : 0;
        if (near(c, refill) && near(c, recovering))
            overlap += slots;
    }
    OverlapBound bound;
    bound.cycles = n;
    if (n == 0)
        return bound;
    const double total = static_cast<double>(n) * core_width;
    bound.overlapSlots = overlap;
    bound.overlapFraction = static_cast<double>(overlap) / total;
    bound.frontendFraction = static_cast<double>(bubbles) / total;
    bound.badSpecFraction =
        static_cast<double>(recovering_cycles) * core_width / total;
    if (bound.frontendFraction > 0)
        bound.frontendPerturbation =
            bound.overlapFraction / bound.frontendFraction;
    if (bound.badSpecFraction > 0)
        bound.badSpecPerturbation =
            bound.overlapFraction / bound.badSpecFraction;
    return bound;
}

/** Sorted lengths of the runs where any Recovering lane is high. */
std::vector<u64>
referenceRecoveries(const TraceSpec &spec, const std::vector<u64> &words)
{
    const u64 mask = spec.fieldMask(EventId::Recovering);
    std::vector<u64> lengths;
    u64 run = 0;
    for (u64 word : words) {
        if (word & mask) {
            run++;
        } else if (run) {
            lengths.push_back(run);
            run = 0;
        }
    }
    if (run)
        lengths.push_back(run);
    std::sort(lengths.begin(), lengths.end());
    return lengths;
}

void
expectBoundsEqual(const OverlapBound &got, const OverlapBound &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.overlapSlots, want.overlapSlots);
    EXPECT_EQ(got.overlapFraction, want.overlapFraction);
    EXPECT_EQ(got.frontendFraction, want.frontendFraction);
    EXPECT_EQ(got.badSpecFraction, want.badSpecFraction);
    EXPECT_EQ(got.frontendPerturbation, want.frontendPerturbation);
    EXPECT_EQ(got.badSpecPerturbation, want.badSpecPerturbation);
}

/** Multi-lane refill, recovery and bubble fields, plus a bystander. */
TraceSpec
overlapSpec()
{
    TraceSpec spec;
    spec.addLane(EventId::ICacheBlocked, 0);
    spec.addLane(EventId::ICacheBlocked, 1);
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::Recovering, 1);
    spec.addLane(EventId::Recovering, 2);
    for (u8 lane = 0; lane < 4; lane++)
        spec.addLane(EventId::FetchBubbles, lane);
    spec.addLane(EventId::Cycles, 0);
    return spec;
}

/**
 * Seeded bursty words for overlapSpec(): refill and recovery lanes
 * rise rarely and fall fast (short bursts, long gaps), bubbles flicker.
 * Odd seeds also raise refill, recovery and a bubble at the first and
 * the last cycle, so runs and windows touch both trace ends.
 */
std::vector<u64>
burstyWords(u64 seed, u64 cycles, u32 fields)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
    std::vector<u64> words;
    u64 word = 0;
    for (u64 c = 0; c < cycles; c++) {
        for (u32 f = 0; f < fields; f++) {
            const bool high = (word >> f) & 1;
            const bool bursty = f < 5; // the refill and recovery lanes
            if (rng.chance(1, high ? (bursty ? 4 : 3) : (bursty ? 90 : 6)))
                word ^= 1ull << f;
        }
        words.push_back(word);
    }
    if (seed % 2 && cycles > 0) {
        words.front() |= (1ull << 1) | (1ull << 2) | (1ull << 5);
        words.back() |= (1ull << 0) | (1ull << 4) | (1ull << 8);
    }
    return words;
}

TEST(OnlineAnalyzer, MatchesBruteForceReference)
{
    const TraceSpec spec = overlapSpec();
    u64 checked = 0;
    for (u64 seed = 0; seed < 24; seed++) {
        const u64 lengths[] = {0, 1, 2, 37, 400, 2500};
        const u64 cycles = lengths[seed % 6];
        const std::vector<u64> words =
            burstyWords(seed, cycles, spec.numFields());
        Trace trace(spec);
        for (u64 word : words)
            trace.append(word);
        const TraceAnalyzer analyzer(trace);
        const std::vector<u64> recoveries =
            referenceRecoveries(spec, words);
        EXPECT_EQ(analyzer.recoveryCdf().lengths, recoveries);
        for (u32 pad : {0u, 1u, 3u, 50u, static_cast<u32>(cycles + 9)}) {
            SCOPED_TRACE(testing::Message() << "seed " << seed
                                            << " cycles " << cycles
                                            << " pad " << pad);
            const u32 width = 1 + seed % 4;
            expectBoundsEqual(analyzer.overlapUpperBound(width, pad),
                              referenceOverlap(spec, words, width, pad));
            OnlineAnalyzer online(spec, pad);
            for (u64 word : words)
                online.feed(word);
            EXPECT_EQ(online.recoveryCdf().lengths, recoveries);
            EXPECT_EQ(online.recoverySequences(), recoveries.size());
            checked++;
        }
    }
    EXPECT_EQ(checked, 24u * 5);
}

TEST(OnlineAnalyzer, AnswersForEveryPrefix)
{
    // Queries settle the delay line on the fly: after each fed cycle
    // the bound equals the reference over the prefix.
    const TraceSpec spec = overlapSpec();
    const std::vector<u64> words = burstyWords(5, 200, spec.numFields());
    for (u32 pad : {0u, 1u, 50u, 400u}) {
        OnlineAnalyzer online(spec, pad);
        for (u64 n = 1; n <= words.size(); n++) {
            online.feed(words[n - 1]);
            const std::vector<u64> prefix(words.begin(),
                                          words.begin() + n);
            ASSERT_EQ(online.overlapBound(2).overlapSlots,
                      referenceOverlap(spec, prefix, 2, pad).overlapSlots)
                << "pad " << pad << " prefix " << n;
            ASSERT_EQ(online.recoveryCdf().lengths,
                      referenceRecoveries(spec, prefix))
                << "prefix " << n;
        }
    }
}

TEST(TraceAnalyzer, WindowTmaMatchesFullRunOnUniformWindow)
{
    BoomCore core(BoomConfig::large(), branchyLoop(2000));
    Trace trace =
        traceRun(core, TraceSpec::tmaBundle(core), 10'000'000);
    ASSERT_TRUE(core.done());
    TraceAnalyzer analyzer(trace);
    const TmaResult full =
        analyzer.windowTma(0, trace.numCycles(), core.coreWidth());
    // Compare against the out-of-band model fed by core totals.
    const TmaResult live = analyzeTma(core);
    EXPECT_NEAR(full.retiring, live.retiring, 1e-9);
    EXPECT_NEAR(full.frontend, live.frontend, 1e-9);
    EXPECT_NEAR(full.badSpeculation, live.badSpeculation, 1e-9);
}

// Boundary cases must be clean errors, not silent empty results: a
// TmaResult of all zeros from an empty window reads like a perfect
// (0% stall) run.
TEST(TraceAnalyzer, WindowTmaRejectsEmptyWindow)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    Trace trace(spec);
    for (int c = 0; c < 100; c++)
        trace.append(0);
    TraceAnalyzer analyzer(trace);
    EXPECT_THROW(analyzer.windowTma(50, 50, 1), FatalError);
    EXPECT_THROW(analyzer.windowTma(60, 40, 1), FatalError);
}

TEST(TraceAnalyzer, WindowTmaRejectsWindowPastTraceEnd)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    Trace trace(spec);
    for (int c = 0; c < 100; c++)
        trace.append(0);
    TraceAnalyzer analyzer(trace);
    try {
        analyzer.windowTma(100, 200, 1);
        FAIL() << "window starting at the trace end accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("ends at cycle"),
                  std::string::npos);
    }
    // A window that merely *extends* past the end is clamped.
    const TmaResult clamped = analyzer.windowTma(90, 10'000, 1);
    EXPECT_EQ(clamped.cycles, 10u);
}

TEST(TraceAnalyzer, WindowTmaRejectsZeroCycleTrace)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    Trace trace(spec);
    TraceAnalyzer analyzer(trace);
    EXPECT_THROW(analyzer.windowTma(0, 1, 1), FatalError);
}

TEST(TraceAnalyzer, PlotValidatesWindowLikeWindowTma)
{
    RocketCore core(RocketConfig{}, branchyLoop(50));
    Trace trace =
        traceRun(core, TraceSpec::frontendBundle(), 1'000'000);
    TraceAnalyzer analyzer(trace);
    EXPECT_THROW(analyzer.plot(10, 10), FatalError);
    EXPECT_THROW(analyzer.plot(trace.numCycles() + 5,
                               trace.numCycles() + 80),
                 FatalError);
    // Clamped-but-nonempty windows still render.
    const std::string tail =
        analyzer.plot(trace.numCycles() - 5, trace.numCycles() + 80);
    EXPECT_NE(tail.find('|'), std::string::npos);

    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    Trace empty(spec);
    TraceAnalyzer empty_analyzer(empty);
    EXPECT_THROW(empty_analyzer.plot(0, 10), FatalError);
}

TEST(TraceAnalyzer, PlotRendersDots)
{
    RocketCore core(RocketConfig{}, branchyLoop(50));
    Trace trace =
        traceRun(core, TraceSpec::frontendBundle(), 1'000'000);
    TraceAnalyzer analyzer(trace);
    const std::string plot = analyzer.plot(0, 60);
    EXPECT_NE(plot.find("icache-miss"), std::string::npos);
    EXPECT_NE(plot.find("ibuf-ready"), std::string::npos);
    EXPECT_NE(plot.find('*'), std::string::npos);
}

// The §III motivating experiment: with a warm I-cache, mergesort
// shows fetch bubbles that no I$-miss explains.
TEST(TraceAnalyzer, MergesortFetchBubblesBeyondICacheMisses)
{
    RocketCore core(RocketConfig{}, workloads::mergesort());
    Trace trace =
        traceRun(core, TraceSpec::frontendBundle(), 50'000'000);
    ASSERT_TRUE(core.done());
    // Skip the cold-start half; in the warm region, count bubbles
    // outside I$-blocked windows.
    const u64 begin = trace.numCycles() / 2;
    u64 bubbles_without_icache = 0;
    for (u64 c = begin; c < trace.numCycles(); c++) {
        if (trace.high(c, EventId::FetchBubbles) &&
            !trace.high(c, EventId::ICacheBlocked) &&
            !trace.high(c, EventId::Recovering))
            bubbles_without_icache++;
    }
    EXPECT_GT(bubbles_without_icache, 0u)
        << "frontend stalls should not all be I$-attributable";
}

} // namespace
} // namespace icicle
