/**
 * @file
 * icestore tests: bit-identical roundtrips across bundle shapes and
 * block geometries, corruption detection (block CRCs, footer index,
 * truncation), metadata-only query behaviour (popcount queries never
 * decode a block), the windowed-TMA equivalence property test against
 * the in-memory analyzer (randomized bursty traces and windows, 100+
 * seeds), streaming capture
 * equivalence, and the bounded-memory guarantee of the streaming
 * path.
 */

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <thread>
#include <tuple>

#include "boom/boom.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/session.hh"
#include "isa/builder.hh"
#include "rocket/rocket.hh"
#include "store/store.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace icicle
{
namespace
{

using namespace reg;

class ScratchFile
{
  public:
    explicit ScratchFile(const char *name)
        : filePath(std::string("/tmp/icicle_store_") + name + ".icst")
    {}
    ~ScratchFile() { std::remove(filePath.c_str()); }
    const std::string &path() const { return filePath; }

  private:
    std::string filePath;
};

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

/**
 * A randomized bursty trace: each field flips state with a small
 * per-cycle probability, so bits arrive in runs — the Fig. 8
 * structure the encoder targets. The spec mixes the multi-lane
 * events the analyzer treats specially.
 */
Trace
randomBurstyTrace(u64 seed, u64 cycles)
{
    TraceSpec spec;
    spec.addLane(EventId::FetchBubbles, 0);
    spec.addLane(EventId::FetchBubbles, 1);
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::Recovering, 1);
    spec.addLane(EventId::ICacheBlocked, 0);
    spec.addLane(EventId::BranchMispredict, 0);
    spec.addLane(EventId::InstRetired, 0);
    spec.addLane(EventId::InstIssued, 0);
    spec.addLane(EventId::Flush, 0);
    spec.addLane(EventId::DCacheBlocked, 0);

    Rng rng(seed * 2654435761u + 1);
    Trace trace(spec);
    u64 word = 0;
    for (u64 c = 0; c < cycles; c++) {
        for (u32 f = 0; f < spec.numFields(); f++) {
            // Low bits flip rarely (long runs); a couple of fields
            // flip often to exercise dense planes.
            const u64 flip_denom = f < 8 ? 40 : 3;
            if (rng.chance(1, flip_denom))
                word ^= 1ull << f;
        }
        trace.append(word);
    }
    return trace;
}

void
expectStoreRoundTrip(const Trace &trace, const std::string &path,
                     u32 block_cycles)
{
    trace.toStore(path, block_cycles);
    const Trace loaded = Trace::fromStore(path);
    ASSERT_EQ(loaded.spec().numFields(), trace.spec().numFields());
    for (u32 f = 0; f < trace.spec().numFields(); f++) {
        EXPECT_EQ(loaded.spec().fields[f].event,
                  trace.spec().fields[f].event);
        EXPECT_EQ(loaded.spec().fields[f].lane,
                  trace.spec().fields[f].lane);
    }
    EXPECT_EQ(loaded.raw(), trace.raw());
}

// ---- roundtrips ------------------------------------------------------

TEST(StoreFormat, RoundTripFrontendBundle)
{
    ScratchFile file("frontend");
    RocketCore core(RocketConfig{}, branchyLoop(300));
    const Trace trace =
        traceRun(core, TraceSpec::frontendBundle(), 1'000'000);
    expectStoreRoundTrip(trace, file.path(), 0);
}

TEST(StoreFormat, RoundTripBoomTmaBundle)
{
    ScratchFile file("boom_tma");
    BoomCore core(BoomConfig::large(), branchyLoop(500));
    const Trace trace =
        traceRun(core, TraceSpec::tmaBundle(core), 1'000'000);
    // Tiny blocks force many blocks and a partial tail.
    expectStoreRoundTrip(trace, file.path(), 64);
}

TEST(StoreFormat, RoundTripExactBlockMultiple)
{
    ScratchFile file("exact");
    Trace trace = randomBurstyTrace(7, 4 * 512);
    expectStoreRoundTrip(trace, file.path(), 512);
    StoreReader reader(file.path());
    EXPECT_EQ(reader.numBlocks(), 4u);
    EXPECT_EQ(reader.numCycles(), 4u * 512);
}

TEST(StoreFormat, RoundTripSingleCycleAndEmpty)
{
    ScratchFile file("tiny");
    TraceSpec spec;
    spec.addLane(EventId::Cycles, 0);
    Trace trace(spec);
    expectStoreRoundTrip(trace, file.path(), 16); // zero cycles
    trace.append(1);
    expectStoreRoundTrip(trace, file.path(), 16);
}

TEST(StoreFormat, RoundTripAllZeroAndAllOnePlanes)
{
    ScratchFile file("extremes");
    TraceSpec spec;
    spec.addLane(EventId::Cycles, 0);      // all ones
    spec.addLane(EventId::Recovering, 0);  // all zeros
    spec.addLane(EventId::FetchBubbles, 0);
    Trace trace(spec);
    for (u64 c = 0; c < 3000; c++)
        trace.append(0b001ull | ((c % 2) << 2));
    expectStoreRoundTrip(trace, file.path(), 1024);
}

// ---- corruption detection -------------------------------------------

TEST(StoreFormat, RejectsGarbage)
{
    ScratchFile file("garbage");
    std::ofstream out(file.path(), std::ios::binary);
    out << "this is not a trace store, not even close";
    out.close();
    EXPECT_THROW(StoreReader reader(file.path()), FatalError);
}

TEST(StoreFormat, RejectsTruncatedStore)
{
    ScratchFile file("truncated");
    randomBurstyTrace(3, 2000).toStore(file.path(), 256);
    std::ifstream in(file.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(file.path(), std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 40));
    out.close();
    // The trailer is gone: the file cannot be located or opened.
    EXPECT_THROW(StoreReader reader(file.path()), FatalError);
}

TEST(StoreFormat, DetectsFlippedBlockByte)
{
    ScratchFile file("bitrot");
    randomBurstyTrace(4, 2000).toStore(file.path(), 256);
    std::fstream io(file.path(),
                    std::ios::binary | std::ios::in | std::ios::out);
    // Flip a byte inside the first block's payload (past the
    // header: 16 bytes + 10 fields x 8 bytes = 96).
    io.seekp(110);
    char byte;
    io.seekg(110);
    io.get(byte);
    io.seekp(110);
    byte = static_cast<char>(byte ^ 0x40);
    io.put(byte);
    io.close();
    StoreReader reader(file.path());
    // Metadata was untouched; decoding the block must fail loudly.
    EXPECT_THROW(reader.verify(), FatalError);
    EXPECT_THROW(reader.readAll(), FatalError);
}

// ---- metadata-only queries ------------------------------------------

TEST(StoreReader, PopcountQueriesNeverDecode)
{
    ScratchFile file("meta");
    const Trace trace = randomBurstyTrace(11, 20'000);
    trace.toStore(file.path(), 1024);
    StoreReader reader(file.path());
    for (const TraceField &field : trace.spec().fields) {
        EXPECT_EQ(reader.count(field.event, field.lane),
                  trace.count(field.event, field.lane));
    }
    EXPECT_EQ(reader.countAllLanes(EventId::FetchBubbles),
              trace.countAllLanes(EventId::FetchBubbles));
    EXPECT_EQ(reader.blocksDecoded(), 0u)
        << "whole-trace popcounts must come from block footers";
}

TEST(StoreReader, WindowedCountDecodesOnlyBoundaryBlocks)
{
    ScratchFile file("boundary");
    const Trace trace = randomBurstyTrace(13, 64 * 1024);
    trace.toStore(file.path(), 1024);
    StoreReader reader(file.path());
    // A window spanning 40 blocks with interior blocks fully
    // covered: at most the two boundary blocks decode.
    const u64 begin = 1024 * 10 + 100, end = 1024 * 50 + 900;
    u64 expected = 0;
    const u64 mask = trace.spec().fieldMask(EventId::FetchBubbles);
    for (u64 c = begin; c < end; c++)
        expected += static_cast<u64>(
            std::popcount(trace.raw()[c] & mask));
    EXPECT_EQ(reader.countInWindow(EventId::FetchBubbles, begin, end),
              expected);
    EXPECT_LE(reader.blocksDecoded(), 2u);
}

TEST(StoreReader, ConcurrentQueriesAreThreadSafe)
{
    // One shared reader, many query threads — the shape icicled uses
    // to serve windowed-TMA requests. The ifstream and the decoded-
    // block cache are guarded by an internal mutex and decoded
    // blocks are handed out as shared_ptr snapshots; this test is
    // the TSan probe for that contract (the tsan CI job runs it),
    // and single-threaded builds still check every answer.
    ScratchFile file("concurrent");
    const u64 cycles = 64 * 1024;
    const Trace trace = randomBurstyTrace(29, cycles);
    trace.toStore(file.path(), 1024);
    StoreReader reader(file.path());
    TraceAnalyzer analyzer(trace);

    // Precompute expected answers single-threaded (the analyzer is
    // not part of the contract under test).
    struct Window
    {
        u64 begin, end;
        u64 bubbles;
        TmaResult tma;
    };
    std::vector<Window> windows;
    Rng rng(12345);
    for (int i = 0; i < 24; i++) {
        Window w;
        w.begin = rng.below(cycles - 2);
        w.end = w.begin + 1 + rng.below(cycles - w.begin - 1);
        w.bubbles = 0;
        const u64 mask =
            trace.spec().fieldMask(EventId::FetchBubbles);
        for (u64 c = w.begin; c < w.end; c++)
            w.bubbles += static_cast<u64>(
                std::popcount(trace.raw()[c] & mask));
        w.tma = analyzer.windowTma(w.begin, w.end, 1);
        windows.push_back(w);
    }

    std::atomic<u64> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
        threads.emplace_back([&, t] {
            // Each thread walks the windows from a different start,
            // so distinct threads hit the same block ranges at
            // different times and contend on the decode cache.
            for (size_t i = 0; i < windows.size() * 3; i++) {
                const Window &w =
                    windows[(i + static_cast<size_t>(t) * 7) %
                            windows.size()];
                if (reader.countInWindow(EventId::FetchBubbles,
                                         w.begin, w.end) !=
                    w.bubbles)
                    failures.fetch_add(1);
                const TmaResult tma =
                    reader.windowTma(w.begin, w.end, 1);
                if (tma.retiring != w.tma.retiring ||
                    tma.totalSlots != w.tma.totalSlots ||
                    tma.frontend != w.tma.frontend)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_GT(reader.blocksDecoded(), 0u);
}

// ---- analyzer equivalence (property test) ---------------------------

void
expectTmaEqual(const TmaResult &a, const TmaResult &b)
{
    // Identical integer counters through the same model: the doubles
    // must match bit-for-bit, not approximately.
    EXPECT_EQ(a.retiring, b.retiring);
    EXPECT_EQ(a.badSpeculation, b.badSpeculation);
    EXPECT_EQ(a.frontend, b.frontend);
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.machineClears, b.machineClears);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.fetchLatency, b.fetchLatency);
    EXPECT_EQ(a.pcResteer, b.pcResteer);
    EXPECT_EQ(a.coreBound, b.coreBound);
    EXPECT_EQ(a.memBound, b.memBound);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.totalSlots, b.totalSlots);
}

TEST(StoreReader, WindowTmaDecodesEachBoundaryBlockOnce)
{
    // Every TMA event needs both partial boundary blocks of this
    // window; the covered block between them comes from its footer.
    // One query must decode each boundary block once, not once per
    // event.
    ScratchFile file("window_once");
    const Trace trace = randomBurstyTrace(31, 8 * 1024);
    trace.toStore(file.path(), 1024);
    StoreReader reader(file.path());
    const u64 begin = 1024 * 3 + 100, end = 1024 * 5 + 900;
    const u64 before = reader.blocksDecoded();
    expectTmaEqual(reader.windowTma(begin, end, 2),
                   TraceAnalyzer(trace).windowTma(begin, end, 2));
    EXPECT_LE(reader.blocksDecoded() - before, 2u);
}

TEST(StoreReader, MatchesInMemoryAnalyzerOverRandomizedSeeds)
{
    for (u64 seed = 0; seed < 110; seed++) {
        ScratchFile file("property");
        Rng rng(seed + 17);
        const u64 cycles = 2000 + rng.below(6000);
        const u32 block = 128u << rng.below(4); // 128..1024
        const Trace trace = randomBurstyTrace(seed, cycles);
        trace.toStore(file.path(), block);
        StoreReader reader(file.path());
        TraceAnalyzer analyzer(trace);
        SCOPED_TRACE("seed " + std::to_string(seed));

        ASSERT_EQ(reader.numCycles(), trace.numCycles());

        // Counter recomputation over a random window.
        const u64 begin = rng.below(cycles - 1);
        const u64 end = begin + 1 + rng.below(cycles - begin);
        const u32 width = 1 + static_cast<u32>(rng.below(4));
        expectTmaEqual(reader.windowTma(begin, end, width),
                       analyzer.windowTma(begin, end, width));

        // Whole-trace counters per traced field.
        for (const TraceField &field : trace.spec().fields) {
            EXPECT_EQ(reader.countAllLanes(field.event),
                      trace.countAllLanes(field.event));
        }
    }
}

TEST(StoreReader, MatchesAnalyzerOnRealBoomTrace)
{
    ScratchFile file("boom_real");
    BoomCore core(BoomConfig::large(), branchyLoop(2000));
    const Trace trace =
        traceRun(core, TraceSpec::tmaBundle(core), 10'000'000);
    ASSERT_TRUE(core.done());
    trace.toStore(file.path(), 4096);
    StoreReader reader(file.path());
    TraceAnalyzer analyzer(trace);
    const u64 n = trace.numCycles();
    expectTmaEqual(reader.windowTma(0, n, core.coreWidth()),
                   analyzer.windowTma(0, n, core.coreWidth()));
    expectTmaEqual(
        reader.windowTma(n / 3, 2 * n / 3, core.coreWidth()),
        analyzer.windowTma(n / 3, 2 * n / 3, core.coreWidth()));
}

TEST(StoreReader, WindowValidationMatchesAnalyzer)
{
    ScratchFile file("validate");
    const Trace trace = randomBurstyTrace(21, 1000);
    trace.toStore(file.path(), 256);
    StoreReader reader(file.path());
    TraceAnalyzer analyzer(trace);
    // Empty, past-the-end and zero-width windows are all fatal on
    // both paths; a zero core width would otherwise report an
    // all-zero breakdown that reads like a perfect run.
    for (const auto &[begin, end, width] :
         {std::tuple<u64, u64, u32>{10, 10, 1},
          {1000, 2000, 1},
          {5000, 6000, 1},
          {0, 1000, 0}}) {
        EXPECT_THROW(reader.windowTma(begin, end, width), FatalError);
        EXPECT_THROW(analyzer.windowTma(begin, end, width), FatalError);
    }
    // end past the trace is clamped, like the analyzer.
    expectTmaEqual(reader.windowTma(900, 99'999, 2),
                   analyzer.windowTma(900, 99'999, 2));
}

// ---- streaming capture ----------------------------------------------

TEST(StoreStreaming, MatchesBatchCapture)
{
    ScratchFile file("stream");
    const Program program = branchyLoop(400);
    RocketCore batch_core(RocketConfig{}, program);
    const Trace batch =
        traceRun(batch_core, TraceSpec::frontendBundle(), 1'000'000);

    RocketCore stream_core(RocketConfig{}, program);
    const u64 cycles = streamTraceToStore(
        stream_core, TraceSpec::frontendBundle(), 1'000'000,
        file.path(), 512);
    EXPECT_EQ(cycles, batch.numCycles());
    const Trace loaded = Trace::fromStore(file.path());
    EXPECT_EQ(loaded.raw(), batch.raw());
}

TEST(StoreStreaming, StreamedStoreIsByteIdenticalToBatchStore)
{
    ScratchFile stream_file("stream_bytes");
    ScratchFile batch_file("batch_bytes");
    const Program program = branchyLoop(400);
    RocketCore batch_core(RocketConfig{}, program);
    traceRun(batch_core, TraceSpec::frontendBundle(), 1'000'000)
        .toStore(batch_file.path(), 512);
    RocketCore stream_core(RocketConfig{}, program);
    streamTraceToStore(stream_core, TraceSpec::frontendBundle(),
                       1'000'000, stream_file.path(), 512);

    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    EXPECT_EQ(slurp(stream_file.path()), slurp(batch_file.path()));
}

TEST(StoreStreaming, SpanCallMatchesPerCycleCalls)
{
    // A run loop hands the sink an idle span in one (first, bus,
    // count) call. The analyzer and the store must end up exactly as
    // count per-cycle calls leave them, including spans that cross a
    // block boundary and spans longer than the overlap pad.
    TraceSpec spec;
    spec.addLane(EventId::FetchBubbles, 0);
    spec.addLane(EventId::FetchBubbles, 1);
    spec.addLane(EventId::FetchBubbles, 2);
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::ICacheBlocked, 0);
    spec.addLane(EventId::InstRetired, 0);
    EventBus bus;
    bus.setNumSources(EventId::FetchBubbles, 3);

    constexpr u32 kBlock = 64;
    ScratchFile span_file("sink_span");
    ScratchFile single_file("sink_single");
    TraceSink span(spec, span_file.path(), kBlock);
    TraceSink single(spec, single_file.path(), kBlock);

    Rng rng(23);
    bool recovering = false, refilling = false;
    bool crossed_block = false, longer_than_pad = false;
    Cycle cycle = 0;
    for (u32 i = 0; i < 800; i++) {
        // Bursty signals, so recovery runs and refill windows overlap.
        if (rng.chance(1, 5))
            recovering = !recovering;
        if (rng.chance(1, 7))
            refilling = !refilling;
        bus.clear();
        bus.raise(EventId::Cycles);
        if (recovering)
            bus.raise(EventId::Recovering);
        if (refilling)
            bus.raise(EventId::ICacheBlocked);
        for (u32 lane = 0; lane < 3; lane++) {
            if (rng.chance(1, 2))
                bus.raise(EventId::FetchBubbles, lane);
        }
        if (rng.chance(1, 3))
            bus.raise(EventId::InstRetired);
        const u64 count =
            1 + rng.below(rng.chance(1, 4) ? 3 * kOverlapPad : 4);
        crossed_block |= cycle / kBlock != (cycle + count - 1) / kBlock;
        longer_than_pad |= count > kOverlapPad;

        span(cycle, bus, count);
        for (u64 c = 0; c < count; c++)
            single(cycle + c, bus);
        cycle += count;

        const OverlapBound a = span.analyzer().overlapBound(3);
        const OverlapBound b = single.analyzer().overlapBound(3);
        ASSERT_EQ(a.cycles, b.cycles) << "after span " << i;
        ASSERT_EQ(a.overlapSlots, b.overlapSlots) << "after span " << i;
        ASSERT_EQ(a.overlapFraction, b.overlapFraction);
        ASSERT_EQ(a.frontendFraction, b.frontendFraction);
        ASSERT_EQ(a.badSpecFraction, b.badSpecFraction);
    }
    EXPECT_TRUE(crossed_block);
    EXPECT_TRUE(longer_than_pad);
    EXPECT_GT(single.analyzer().overlapBound(3).overlapSlots, 0u);
    EXPECT_EQ(span.analyzer().recoveryCdf().lengths,
              single.analyzer().recoveryCdf().lengths);
    EXPECT_GT(single.analyzer().recoverySequences(), 10u);

    span.finish();
    single.finish();
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    EXPECT_EQ(StoreReader(span_file.path()).numCycles(), cycle);
    EXPECT_EQ(slurp(span_file.path()), slurp(single_file.path()));
}

TEST(StoreStreaming, TenMillionCyclesBoundedMemory)
{
    // The acceptance guarantee: a 10M-cycle streaming capture keeps
    // peak trace memory at O(block size). The streaming path holds
    // no Trace at all — Trace::records never exists, let alone
    // grows — so the bound to check is the writer's block buffer.
    ScratchFile file("bounded");
    TraceSpec spec;
    spec.addLane(EventId::FetchBubbles, 0);
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::ICacheBlocked, 0);
    StoreWriter writer(spec, file.path(), kStoreDefaultBlockCycles);
    Rng rng(99);
    u64 word = 0, expected_bubbles = 0;
    const u64 kCycles = 10'000'000;
    for (u64 c = 0; c < kCycles; c++) {
        if (rng.chance(1, 50))
            word ^= 1;
        if (rng.chance(1, 200))
            word ^= 2;
        if (rng.chance(1, 500))
            word ^= 4;
        expected_bubbles += word & 1;
        writer.append(word);
        ASSERT_LE(writer.bufferedCycles(), writer.blockCycles());
    }
    writer.finish();
    EXPECT_EQ(writer.cyclesWritten(), kCycles);
    EXPECT_LE(writer.peakBufferedCycles(), writer.blockCycles());

    StoreReader reader(file.path());
    EXPECT_EQ(reader.numCycles(), kCycles);
    EXPECT_EQ(reader.countAllLanes(EventId::FetchBubbles),
              expected_bubbles);
    EXPECT_EQ(reader.blocksDecoded(), 0u);
    // Narrow window on the 10M-cycle store: only boundary blocks
    // decode (the sublinear-query property).
    reader.windowTma(5'000'000, 5'000'200, 1);
    EXPECT_LE(reader.blocksDecoded(), 2u);
}

TEST(StoreWriter, ZeroBlockCyclesSelectsDefault)
{
    // The CLI passes 0 for "no --block given"; it must map to the
    // default, not degenerate single-cycle blocks.
    ScratchFile file("zero_block");
    TraceSpec spec;
    spec.addLane(EventId::Cycles, 0);
    StoreWriter writer(spec, file.path(), 0);
    EXPECT_EQ(writer.blockCycles(), kStoreDefaultBlockCycles);
    writer.append(1);
    writer.finish();
    EXPECT_EQ(StoreReader(file.path()).blockCycles(),
              kStoreDefaultBlockCycles);
}

TEST(StoreWriter, AbandonRemovesTheTmpAndSealsNothing)
{
    ScratchFile file("abandoned");
    const std::string tmp = file.path() + ".tmp";
    TraceSpec spec;
    spec.addLane(EventId::Cycles, 0);
    {
        StoreWriter writer(spec, file.path(), 64);
        for (u64 c = 0; c < 1000; c++)
            writer.append(c & 1);
        EXPECT_TRUE(std::filesystem::exists(tmp));
        writer.abandon();
        EXPECT_FALSE(std::filesystem::exists(tmp));
        // A later finish() does nothing; append() is fatal.
        writer.finish();
        EXPECT_FALSE(std::filesystem::exists(file.path()));
        EXPECT_THROW(writer.append(1), FatalError);
    }
    // Nor does the destructor seal an abandoned writer.
    EXPECT_FALSE(std::filesystem::exists(file.path()));
    EXPECT_FALSE(std::filesystem::exists(tmp));
}

TEST(StoreWriter, AbandonAfterFinishKeepsTheStore)
{
    ScratchFile file("kept");
    TraceSpec spec;
    spec.addLane(EventId::Cycles, 0);
    StoreWriter writer(spec, file.path(), 64);
    writer.append(1);
    writer.finish();
    writer.abandon();
    EXPECT_EQ(StoreReader(file.path()).numCycles(), 1u);
}

TEST(StoreWriter, AppendAfterFinishIsFatal)
{
    ScratchFile file("sealed");
    TraceSpec spec;
    spec.addLane(EventId::Cycles, 0);
    StoreWriter writer(spec, file.path(), 64);
    writer.append(1);
    writer.finish();
    EXPECT_THROW(writer.append(1), FatalError);
}

} // namespace
} // namespace icicle
