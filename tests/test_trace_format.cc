/**
 * @file
 * Trace-format tests: Trace <-> .icst roundtrips across every bundle
 * shape, rejection of malformed .icst headers (bad magic/version,
 * truncation, duplicate fields, out-of-range event ids and lanes —
 * regression tests for the header decode-corruption bug), reading of
 * pre-CRC version-1 stores, multi-lane analyzer behaviour, and
 * RecoveryCdf edge cases.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <utility>
#include <vector>

#include "boom/boom.hh"
#include "common/crc32.hh"
#include "common/logging.hh"
#include "isa/builder.hh"
#include "rocket/rocket.hh"
#include "store/store.hh"
#include "trace/trace.hh"

namespace icicle
{
namespace
{

using namespace reg;

Program
tinyLoop()
{
    ProgramBuilder b("tiny");
    Label loop = b.newLabel();
    b.li(t2, 64);
    b.bind(loop);
    b.addi(t2, t2, -1);
    b.bnez(t2, loop);
    b.halt();
    return b.build();
}

class ScratchFile
{
  public:
    explicit ScratchFile(const char *name)
        : filePath(std::string("/tmp/icicle_fmt_") + name + ".icst")
    {}
    ~ScratchFile() { std::remove(filePath.c_str()); }
    const std::string &path() const { return filePath; }

  private:
    std::string filePath;
};

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
dumpFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

// ---- roundtrips across bundle shapes --------------------------------

void
expectStoreRoundTrip(const Trace &trace, const std::string &path)
{
    // 1K-cycle blocks: the 100K-cycle runs span many blocks.
    trace.toStore(path, 1024);
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

TEST(TraceFormat, RoundTripFrontendBundle)
{
    ScratchFile file("frontend");
    RocketCore core(RocketConfig{}, tinyLoop());
    expectStoreRoundTrip(
        traceRun(core, TraceSpec::frontendBundle(), 100'000),
        file.path());
}

TEST(TraceFormat, RoundTripRocketTmaBundle)
{
    ScratchFile file("rocket_tma");
    RocketCore core(RocketConfig{}, tinyLoop());
    expectStoreRoundTrip(
        traceRun(core, TraceSpec::tmaBundle(core), 100'000),
        file.path());
}

TEST(TraceFormat, RoundTripBoomTmaBundle)
{
    // The widest shipped bundle: multi-lane issue/retire/bubble
    // fields on a 3-wide core.
    ScratchFile file("boom_tma");
    BoomCore core(BoomConfig::large(), tinyLoop());
    expectStoreRoundTrip(
        traceRun(core, TraceSpec::tmaBundle(core), 100'000),
        file.path());
}

TEST(TraceFormat, RoundTripSingleFieldAndEmptyTrace)
{
    ScratchFile file("single");
    TraceSpec spec;
    spec.addLane(EventId::Cycles, 0);
    Trace trace(spec);
    expectStoreRoundTrip(trace, file.path()); // zero cycles
    trace.append(1);
    trace.append(0);
    expectStoreRoundTrip(trace, file.path());
}

TEST(TraceFormat, RoundTripMaxWidthBundle)
{
    // All 64 signal slots in use: every bit position must survive.
    ScratchFile file("wide");
    TraceSpec spec;
    for (u32 f = 0; f < 64; f++)
        spec.addLane(static_cast<EventId>(f % 8),
                     static_cast<u8>(f / 8));
    ASSERT_EQ(spec.numFields(), 64u);
    Trace trace(spec);
    trace.append(~0ull);
    trace.append(0x0123456789abcdefull);
    trace.append(1ull << 63);
    expectStoreRoundTrip(trace, file.path());
}

// ---- malformed headers ----------------------------------------------

using FieldTable = std::vector<std::pair<u32, u32>>;

void
put32(std::string &bytes, u32 v)
{
    bytes.append(reinterpret_cast<const char *>(&v), 4);
}

/** Header bytes in the v2 layout, ending in a valid header CRC. */
std::string
storeHeader(const FieldTable &fields, u32 magic = kStoreMagic,
            u32 version = kStoreVersion)
{
    std::string bytes;
    put32(bytes, magic);
    put32(bytes, version);
    put32(bytes, static_cast<u32>(fields.size()));
    put32(bytes, 64); // cycles per block
    for (const auto &[event, lane] : fields) {
        put32(bytes, event);
        put32(bytes, lane);
    }
    put32(bytes, crc32(bytes.data(), bytes.size()));
    return bytes;
}

/**
 * Write a sealed three-field store, then swap its header for
 * storeHeader(fields, ...): with three fields every byte after the
 * header is still a valid store, and the header CRC matches, so only
 * the field-table checks can reject the file.
 */
void
writeStoreWithHeader(const std::string &path, const FieldTable &fields,
                     u32 magic = kStoreMagic,
                     u32 version = kStoreVersion)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::FetchBubbles, 0);
    spec.addLane(EventId::Cycles, 0);
    Trace trace(spec);
    for (u64 word : {0b100ull, 0b111ull, 0b110ull})
        trace.append(word);
    trace.toStore(path, 64);
    std::string bytes = slurpFile(path);
    bytes.replace(0, 16 + 8 * spec.numFields() + 4,
                  storeHeader(fields, magic, version));
    dumpFile(path, bytes);
}

/** Open must throw a FatalError whose message contains `needle`. */
void
expectRejected(const std::string &path, const char *needle)
{
    try {
        StoreReader reader(path);
        FAIL() << "malformed store accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(needle),
                  std::string::npos)
            << err.what();
    }
}

const u32 kRecovering = static_cast<u32>(EventId::Recovering);
const u32 kBubbles = static_cast<u32>(EventId::FetchBubbles);
const u32 kCycles = static_cast<u32>(EventId::Cycles);

TEST(TraceFormat, RejectsBadMagic)
{
    ScratchFile file("bad_magic");
    writeStoreWithHeader(file.path(),
                         {{kRecovering, 0}, {kBubbles, 0}, {kCycles, 0}},
                         0xdeadbeef);
    expectRejected(file.path(), "not an Icicle trace store");
}

TEST(TraceFormat, RejectsBadVersion)
{
    ScratchFile file("bad_version");
    writeStoreWithHeader(file.path(),
                         {{kRecovering, 0}, {kBubbles, 0}, {kCycles, 0}},
                         kStoreMagic, 999);
    expectRejected(file.path(), "unsupported trace store version");
}

TEST(TraceFormat, RejectsTruncatedHeader)
{
    // File ends mid-field-table: three fields promised, one present.
    ScratchFile file("trunc_header");
    dumpFile(file.path(),
             storeHeader({{kRecovering, 0}, {kBubbles, 0},
                          {kCycles, 0}})
                 .substr(0, 16 + 8));
    expectRejected(file.path(), "truncated field table");
}

TEST(TraceFormat, RejectsTruncatedPayload)
{
    // A valid header, then the file ends inside the first block.
    ScratchFile file("trunc_payload");
    writeStoreWithHeader(file.path(),
                         {{kRecovering, 0}, {kBubbles, 0}, {kCycles, 0}});
    dumpFile(file.path(), slurpFile(file.path()).substr(0, 44 + 6));
    EXPECT_THROW(StoreReader reader(file.path()), FatalError);
}

// Regression: a duplicate (event, lane) pair must not be deduplicated
// through TraceSpec::addLane — that shifts the bit index of every
// later field, so all later signals decode from the wrong bit. It
// must be rejected outright.
TEST(TraceFormat, RejectsDuplicateField)
{
    ScratchFile file("dup_field");
    // Control: the same rewrite with distinct fields opens cleanly,
    // so the rejection below is the duplicate check, not the CRC.
    writeStoreWithHeader(file.path(),
                         {{kBubbles, 0}, {kRecovering, 0}, {kCycles, 0}});
    EXPECT_EQ(StoreReader(file.path()).spec().fields[0].event,
              EventId::FetchBubbles);

    writeStoreWithHeader(file.path(), {{kRecovering, 0},
                                       {kRecovering, 0}, // dup
                                       {kBubbles, 0}});
    expectRejected(file.path(), "field 1 duplicates (recovering");
}

TEST(TraceFormat, RejectsOutOfRangeEventId)
{
    ScratchFile file("bad_event");
    writeStoreWithHeader(
        file.path(),
        {{kRecovering, 0}, {kNumEvents + 7, 0}, {kCycles, 0}});
    expectRejected(file.path(), "field 1 has out-of-range event id");
}

TEST(TraceFormat, RejectsOutOfRangeLane)
{
    ScratchFile file("bad_lane");
    writeStoreWithHeader(
        file.path(),
        {{kRecovering, 0}, {kBubbles, 0}, {kCycles, kMaxSources}});
    expectRejected(file.path(), "field 2 has out-of-range lane");
}

TEST(TraceFormat, RejectsOversizedFieldCount)
{
    ScratchFile file("too_many");
    FieldTable fields;
    for (u32 f = 0; f < 65; f++)
        fields.emplace_back(f % kNumEvents, f / kNumEvents);
    writeStoreWithHeader(file.path(), fields);
    expectRejected(file.path(), "limited to 64 signals");
}

TEST(TraceFormat, AcceptsVersion1FilesWithoutCrc)
{
    // Pre-CRC stores (version 1) must stay readable. A v1 file is a
    // v2 file without the 4-byte header CRC, so every block offset in
    // the footer index, the index offset in the trailer, and the
    // index CRC over those offsets change with it.
    ScratchFile file("v1_legacy");
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    Trace trace(spec);
    for (int c = 0; c < 100; c++)
        trace.append(c % 3 == 0);
    trace.toStore(file.path(), 64);

    std::string bytes = slurpFile(file.path());
    auto get = [&bytes](std::size_t at, auto &v) {
        std::memcpy(&v, bytes.data() + at, sizeof(v));
    };
    auto set = [&bytes](std::size_t at, auto v) {
        std::memcpy(bytes.data() + at, &v, sizeof(v));
    };
    bytes.erase(16 + 8 * spec.numFields(), 4);
    set(4, u32{1});
    u64 index_offset;
    get(bytes.size() - 12, index_offset);
    index_offset -= 4;
    set(bytes.size() - 12, index_offset);
    u32 num_blocks;
    get(index_offset, num_blocks);
    ASSERT_EQ(num_blocks, 2u);
    for (u32 b = 0; b < num_blocks; b++) {
        u64 offset;
        get(index_offset + 4 + b * 20, offset);
        set(index_offset + 4 + b * 20, offset - 4);
    }
    const std::size_t crc_at = bytes.size() - 16;
    set(crc_at, crc32(bytes.data() + index_offset,
                      crc_at - index_offset));
    dumpFile(file.path(), bytes);

    const Trace loaded = Trace::fromStore(file.path());
    EXPECT_EQ(loaded.raw(), trace.raw());
    EXPECT_EQ(loaded.count(EventId::Recovering), 34u);
}

// ---- multi-lane analyzer regression tests ---------------------------

// Regression: recoveryCdf()/overlapUpperBound() only looked at lane 0
// of Recovering / ICacheBlocked; activity on other lanes of a
// multi-lane bundle was silently dropped.
TEST(TraceFormat, RecoveryCdfSeesNonZeroLanes)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::Recovering, 1);
    Trace trace(spec);
    // One 3-cycle recovery asserted only on lane 1.
    for (u64 word : {0ull, 0b10ull, 0b10ull, 0b10ull, 0ull})
        trace.append(word);
    TraceAnalyzer analyzer(trace);
    const RecoveryCdf cdf = analyzer.recoveryCdf();
    ASSERT_EQ(cdf.sequences(), 1u);
    EXPECT_EQ(cdf.lengths[0], 3u);
}

TEST(TraceFormat, RecoveryCdfMergesOverlappingLanes)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::Recovering, 1);
    Trace trace(spec);
    // Lane 0 high cycles 1-2, lane 1 high cycles 2-4: one merged run
    // of length 4, not two separate runs.
    for (u64 word : {0ull, 0b01ull, 0b11ull, 0b10ull, 0b10ull, 0ull})
        trace.append(word);
    TraceAnalyzer analyzer(trace);
    const RecoveryCdf cdf = analyzer.recoveryCdf();
    ASSERT_EQ(cdf.sequences(), 1u);
    EXPECT_EQ(cdf.lengths[0], 4u);
}

TEST(TraceFormat, OverlapBoundCountsNonZeroLaneActivity)
{
    TraceSpec spec;
    spec.addLane(EventId::ICacheBlocked, 0);
    spec.addLane(EventId::ICacheBlocked, 1); // refill on lane 1 only
    spec.addLane(EventId::Recovering, 1);    // recovery on lane 1 only
    spec.addLane(EventId::FetchBubbles, 0);
    spec.addLane(EventId::FetchBubbles, 1);
    Trace trace(spec);
    for (int c = 0; c < 200; c++)
        trace.append(0);
    // 8 cycles: refill(lane1) + recovering(lane1) + both bubble lanes.
    for (int c = 0; c < 8; c++)
        trace.append(0b11110);
    for (int c = 0; c < 200; c++)
        trace.append(0);
    TraceAnalyzer analyzer(trace);
    const OverlapBound bound = analyzer.overlapUpperBound(2, 50);
    // Both bubble lanes in all 8 overlap cycles.
    EXPECT_EQ(bound.overlapSlots, 16u);
    EXPECT_GT(bound.badSpecFraction, 0.0);
}

TEST(TraceFormat, CountAllLanesMatchesPerLaneSum)
{
    TraceSpec spec;
    spec.addLane(EventId::FetchBubbles, 0);
    spec.addLane(EventId::FetchBubbles, 1);
    spec.addLane(EventId::FetchBubbles, 2);
    spec.addLane(EventId::Recovering, 0);
    Trace trace(spec);
    for (u64 word : {0b0001ull, 0b0111ull, 0b1101ull, 0b0000ull})
        trace.append(word);
    u64 per_lane = 0;
    for (u8 lane = 0; lane < 3; lane++)
        per_lane += trace.count(EventId::FetchBubbles, lane);
    EXPECT_EQ(trace.countAllLanes(EventId::FetchBubbles), per_lane);
    EXPECT_EQ(trace.countAllLanes(EventId::FetchBubbles), 6u);
    EXPECT_EQ(trace.countAllLanes(EventId::Cycles), 0u);
}

TEST(TraceFormat, FieldMaskCoversExactlyTheEventsLanes)
{
    TraceSpec spec;
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::FetchBubbles, 0);
    spec.addLane(EventId::Recovering, 2);
    EXPECT_EQ(spec.fieldMask(EventId::Recovering), 0b101ull);
    EXPECT_EQ(spec.fieldMask(EventId::FetchBubbles), 0b010ull);
    EXPECT_EQ(spec.fieldMask(EventId::Cycles), 0ull);
}

// ---- RecoveryCdf edge cases -----------------------------------------

TEST(RecoveryCdfEdge, EmptyDistribution)
{
    RecoveryCdf cdf;
    EXPECT_EQ(cdf.sequences(), 0u);
    EXPECT_EQ(cdf.percentile(0.0), 0u);
    EXPECT_EQ(cdf.percentile(0.5), 0u);
    EXPECT_EQ(cdf.percentile(1.0), 0u);
    EXPECT_EQ(cdf.mode(), 0u);
    EXPECT_EQ(cdf.max(), 0u);
}

TEST(RecoveryCdfEdge, SingleElement)
{
    RecoveryCdf cdf;
    cdf.lengths = {7};
    EXPECT_EQ(cdf.sequences(), 1u);
    EXPECT_EQ(cdf.percentile(0.0), 7u);
    EXPECT_EQ(cdf.percentile(0.5), 7u);
    EXPECT_EQ(cdf.percentile(1.0), 7u);
    EXPECT_EQ(cdf.mode(), 7u);
    EXPECT_EQ(cdf.max(), 7u);
}

TEST(RecoveryCdfEdge, PercentileClampsFractionAboveOne)
{
    RecoveryCdf cdf;
    cdf.lengths = {1, 2, 3};
    EXPECT_EQ(cdf.percentile(1.5), 3u);
}

} // namespace
} // namespace icicle
