/**
 * @file
 * Byte-identity harness for the core tick paths (ISSUE 7 gate).
 *
 * The SoA/ring-buffer refactor of the Rocket and BOOM tick loops is
 * required to have *zero* behavioural drift: every guest-visible
 * counter, trace word, and TMA number must stay bit-identical to the
 * pre-refactor model. This suite pins that property with golden
 * hashes generated from the pre-refactor code (the same pattern the
 * icestore equivalence suite uses): 110 seeded synthetic workloads x
 * {Rocket, BOOM-medium, BOOM-large} x {Scalar, Distributed} counters,
 * each run with a TMA trace bundle attached and a representative set
 * of programmed HPM counters, folded into one CRC32 per (seed,
 * config). The BOOM-large columns (the size the sweep workloads run)
 * were generated later than the other four, from the model before
 * idle-span skipping, and pin that skipping changes nothing.
 *
 * The fold covers, in fixed order:
 *   - simulated cycle count and executor exit state,
 *   - host-side event totals for every EventId,
 *   - per-lane totals for every multi-source event,
 *   - raw CSR counter values AND corrected (residue-summed) values,
 *   - every packed trace word of the run,
 *   - the full TmaResult (bit-cast doubles).
 *
 * Regenerating goldens (only legitimate when the *model* changes, in
 * which case the diff must be explainable event by event):
 *
 *   ICICLE_TICK_IDENTITY_REGEN=/path/to/golden_tick_identity.inc \
 *     ./build/tests/test_tick_identity
 */

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boom/boom.hh"
#include "common/crc32.hh"
#include "common/random.hh"
#include "core/dispatch.hh"
#include "core/session.hh"
#include "rocket/rocket.hh"
#include "trace/trace.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace icicle;

#include "golden_tick_identity.inc"

constexpr u64 kNumSeeds = 110;
constexpr u64 kRocketCycles = 40'000;
constexpr u64 kBoomCycles = 25'000;

/** Mix a seed into a diverse synthetic workload. */
SyntheticSpec
specForSeed(u64 seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xc2b2ae3d27d4eb4full);
    SyntheticSpec spec;
    spec.seed = seed + 1;
    spec.iterations = 400 + rng.below(400);
    spec.ilpChains = 1 + static_cast<u32>(rng.below(6));
    spec.chainDepth = 1 + static_cast<u32>(rng.below(4));
    spec.muls = static_cast<u32>(rng.below(3));
    spec.divs = static_cast<u32>(rng.below(2));
    spec.loads = static_cast<u32>(rng.below(5));
    spec.dataKiB = 4ull << rng.below(6); // 4 KiB .. 128 KiB
    spec.unpredictableBranches = static_cast<u32>(rng.below(3));
    spec.predictableBranches = static_cast<u32>(rng.below(3));
    spec.codeBloatFuncs = static_cast<u32>(rng.below(4));
    return spec;
}

void
foldU64(Crc32 &crc, u64 value)
{
    unsigned char bytes[8];
    std::memcpy(bytes, &value, sizeof(bytes));
    crc.update(bytes, sizeof(bytes));
}

void
foldDouble(Crc32 &crc, double value)
{
    u64 bits;
    std::memcpy(&bits, &value, sizeof(bits));
    foldU64(crc, bits);
}

void
foldTma(Crc32 &crc, const TmaResult &tma)
{
    foldDouble(crc, tma.retiring);
    foldDouble(crc, tma.badSpeculation);
    foldDouble(crc, tma.frontend);
    foldDouble(crc, tma.backend);
    foldDouble(crc, tma.machineClears);
    foldDouble(crc, tma.branchMispredicts);
    foldDouble(crc, tma.resteers);
    foldDouble(crc, tma.recoveryBubbles);
    foldDouble(crc, tma.fetchLatency);
    foldDouble(crc, tma.pcResteer);
    foldDouble(crc, tma.coreBound);
    foldDouble(crc, tma.memBound);
    foldDouble(crc, tma.memBoundL2);
    foldDouble(crc, tma.memBoundDram);
    foldDouble(crc, tma.ipc);
    foldU64(crc, tma.totalSlots);
    foldU64(crc, tma.cycles);
}

/** Program a representative HPM set (plain, multi-event, per-lane). */
void
programCounters(Core &core)
{
    CsrFile &csrs = core.csrFile();
    if (core.kind() == CoreKind::Rocket) {
        csrs.program(0, {EventId::InstRetired});
        csrs.program(1, {EventId::InstIssued});
        csrs.program(2, {EventId::FetchBubbles});
        csrs.program(3, {EventId::BranchMispredict, EventId::Flush});
        csrs.program(4, {EventId::Recovering});
        csrs.program(5, {EventId::DCacheBlocked});
    } else {
        csrs.program(0, {EventId::InstRetired});
        csrs.program(1, {EventId::UopsIssued});
        csrs.program(2, {EventId::FetchBubbles});
        csrs.program(3, {EventId::BranchMispredict, EventId::Flush});
        csrs.program(4, {EventId::Recovering});
        // Lane-selected counter: decode lane 0 of the bubble signal.
        csrs.program(5, {EventId::FetchBubbles}, 1);
    }
    csrs.setInhibit(false);
}

u32
runAndHash(Core &core, u64 max_cycles)
{
    programCounters(core);
    const TraceSpec spec = TraceSpec::tmaBundle(core);
    const Trace trace = traceRun(core, spec, max_cycles);

    Crc32 crc;
    foldU64(crc, core.cycle());
    foldU64(crc, core.executor().halted() ? 1 : 0);
    foldU64(crc, core.executor().exitCode());
    for (u32 e = 0; e < kNumEvents; e++) {
        const EventId id = static_cast<EventId>(e);
        foldU64(crc, core.total(id));
        const u32 sources = core.bus().sourcesOf(id);
        if (sources > 1) {
            for (u32 lane = 0; lane < sources; lane++)
                foldU64(crc, core.laneTotal(id, lane));
        }
    }
    const CsrFile &csrs = core.csrs();
    foldU64(crc, csrs.cycles());
    foldU64(crc, csrs.instsRetired());
    for (u32 i = 0; i < 6; i++) {
        foldU64(crc, csrs.hpmValue(i));
        foldU64(crc, csrs.hpmCorrected(i));
    }
    for (u64 word : trace.raw())
        foldU64(crc, word);
    foldTma(crc, analyzeTma(core));
    return crc.value();
}

/** The six configurations, in golden-column order. */
u32
hashConfig(u64 seed, u32 config)
{
    const Program program = generateSynthetic(specForSeed(seed));
    switch (config) {
      case 0: {
        RocketConfig cfg;
        cfg.counterArch = CounterArch::Scalar;
        RocketCore core(cfg, program);
        return runAndHash(core, kRocketCycles);
      }
      case 1: {
        RocketConfig cfg;
        cfg.counterArch = CounterArch::Distributed;
        RocketCore core(cfg, program);
        return runAndHash(core, kRocketCycles);
      }
      case 2: {
        BoomConfig cfg = BoomConfig::medium();
        cfg.counterArch = CounterArch::Scalar;
        BoomCore core(cfg, program);
        return runAndHash(core, kBoomCycles);
      }
      case 3: {
        BoomConfig cfg = BoomConfig::medium();
        cfg.counterArch = CounterArch::Distributed;
        BoomCore core(cfg, program);
        return runAndHash(core, kBoomCycles);
      }
      case 4: {
        BoomConfig cfg = BoomConfig::large();
        cfg.counterArch = CounterArch::Scalar;
        BoomCore core(cfg, program);
        return runAndHash(core, kBoomCycles);
      }
      default: {
        BoomConfig cfg = BoomConfig::large();
        cfg.counterArch = CounterArch::Distributed;
        BoomCore core(cfg, program);
        return runAndHash(core, kBoomCycles);
      }
    }
}

constexpr u32 kNumConfigs = 6;

const char *const kConfigNames[kNumConfigs] = {
    "rocket-scalar",
    "rocket-distributed",
    "boom-medium-scalar",
    "boom-medium-distributed",
    "boom-large-scalar",
    "boom-large-distributed",
};

/** Regen mode: rewrite the golden table instead of checking it. */
bool
maybeRegenerate()
{
    const char *path = std::getenv("ICICLE_TICK_IDENTITY_REGEN");
    if (!path)
        return false;
    std::FILE *out = std::fopen(path, "w");
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        std::exit(1);
    }
    std::fprintf(out,
                 "// Golden tick-identity hashes. Generated by\n"
                 "// ICICLE_TICK_IDENTITY_REGEN (see "
                 "test_tick_identity.cc);\n"
                 "// columns: rocket-scalar, rocket-distributed,\n"
                 "// boom-medium-scalar, boom-medium-distributed,\n"
                 "// boom-large-scalar, boom-large-distributed.\n"
                 "static const u32 kGoldenTickHashes[110][6] = {\n");
    for (u64 seed = 0; seed < kNumSeeds; seed++) {
        std::fprintf(out, "    {");
        for (u32 config = 0; config < kNumConfigs; config++)
            std::fprintf(out, "%s0x%08" PRIx32, config ? ", " : "",
                         hashConfig(seed, config));
        std::fprintf(out, "},\n");
    }
    std::fprintf(out, "};\n");
    std::fclose(out);
    std::printf("regenerated goldens at %s\n", path);
    return true;
}

// Group seeds into 11 shards of 10 so ctest parallelizes the suite.
struct TickIdentityShard : ::testing::TestWithParam<u64>
{};

TEST_P(TickIdentityShard, MatchesPreRefactorGolden)
{
    static const bool regenerated = maybeRegenerate();
    if (regenerated)
        GTEST_SKIP() << "regen mode: goldens rewritten, not checked";
    const u64 shard = GetParam();
    for (u64 seed = shard * 10; seed < (shard + 1) * 10; seed++) {
        for (u32 config = 0; config < kNumConfigs; config++) {
            EXPECT_EQ(hashConfig(seed, config),
                      kGoldenTickHashes[seed][config])
                << "seed " << seed << " config "
                << kConfigNames[config]
                << ": tick path drifted from the pre-refactor golden";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllSeeds, TickIdentityShard,
                         ::testing::Range<u64>(0, 11));

/** Everything a run leaves behind that an idle-span skip could move. */
struct RunRecord
{
    u64 simulated = 0;
    Cycle cycle = 0;
    std::vector<u64> totals; ///< indexed by EventId
    std::vector<u64> laneTotals;
    std::vector<u64> csrValues;
    std::vector<u64> words;

    bool operator==(const RunRecord &) const = default;
};

/**
 * Run a fresh core for max_cycles: in one run() call with a per-cycle
 * hook when chunk is 0, else in run loop calls of `chunk` cycles with
 * a span hook.
 */
RunRecord
recordRun(const std::function<std::unique_ptr<Core>()> &make,
          bool programmed, u64 max_cycles, u64 chunk)
{
    std::unique_ptr<Core> core = make();
    if (programmed)
        programCounters(*core);
    else
        core->csrFile().setInhibit(false); // mcycle/minstret only
    const TracePacker packer(TraceSpec::tmaBundle(*core));
    RunRecord record;
    if (chunk == 0) {
        record.simulated = core->run(
            max_cycles, [&](Cycle cycle, const EventBus &bus) {
                EXPECT_EQ(cycle, record.words.size());
                record.words.push_back(packer.pack(bus));
            });
    } else {
        while (!core->done() && record.simulated < max_cycles) {
            const u64 step = std::min(chunk, max_cycles - record.simulated);
            const u64 ran = runCoreLoop(
                *core, step,
                [&](Cycle first, const EventBus &bus, u64 count) {
                    EXPECT_EQ(first, record.words.size());
                    record.words.insert(record.words.end(), count,
                                        packer.pack(bus));
                });
            EXPECT_LE(ran, step) << "a span crossed the run bound";
            record.simulated += ran;
        }
    }
    record.cycle = core->cycle();
    for (u32 e = 0; e < kNumEvents; e++) {
        const EventId id = static_cast<EventId>(e);
        record.totals.push_back(core->total(id));
        for (u32 lane = 0; lane < core->bus().sourcesOf(id); lane++)
            record.laneTotals.push_back(core->laneTotal(id, lane));
    }
    const CsrFile &csrs = core->csrs();
    record.csrValues = {csrs.cycles(), csrs.instsRetired()};
    for (u32 i = 0; i < 6; i++) {
        record.csrValues.push_back(csrs.hpmValue(i));
        record.csrValues.push_back(csrs.hpmCorrected(i));
        record.csrValues.push_back(csrs.hpmSaturated(i));
    }
    return record;
}

/**
 * Sweep chunking and timeouts split a run into run() calls, so an
 * idle span must never cross a call's bound: a run split into calls
 * of 1 (so no span at all), 97 and 65,536 cycles must match one call
 * exactly, on every registry workload.
 */
class RunBounds : public ::testing::TestWithParam<int>
{};

TEST_P(RunBounds, SplitRunsMatchOneRun)
{
    constexpr u64 kCycles = 20'000;
    const Program program = allWorkloads()[GetParam()].build();
    for (bool tlb : {false, true}) {
        const std::vector<
            std::pair<std::string, std::function<std::unique_ptr<Core>()>>>
            cores = {
                {"rocket",
                 [&, tlb] {
                     RocketConfig cfg;
                     cfg.mem.tlb.enabled = tlb;
                     return std::make_unique<RocketCore>(cfg, program);
                 }},
                {"boom-large",
                 [&, tlb] {
                     BoomConfig cfg = BoomConfig::large();
                     cfg.mem.tlb.enabled = tlb;
                     return std::make_unique<BoomCore>(cfg, program);
                 }},
            };
        for (const auto &[name, make] : cores) {
            for (bool programmed : {false, true}) {
                SCOPED_TRACE(name + (tlb ? " tlb" : "") +
                             (programmed ? " programmed" : ""));
                const RunRecord whole =
                    recordRun(make, programmed, kCycles, 0);
                EXPECT_EQ(whole.words.size(), whole.simulated);
                for (u64 chunk : {1ull, 97ull, 65'536ull}) {
                    EXPECT_TRUE(recordRun(make, programmed, kCycles,
                                          chunk) == whole)
                        << "run() calls of " << chunk << " cycles";
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, RunBounds,
    ::testing::Range(0, static_cast<int>(allWorkloads().size())),
    [](const auto &info) {
        std::string name = allWorkloads()[info.param].name;
        for (char &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

} // namespace
