/**
 * @file
 * Fault-injection and recovery tests (the icicle-harden layer):
 * FaultPlan spec parsing and bounded firing, AtomicFile crash-atomic
 * commit/discard semantics, store salvage under exhaustive truncation
 * (every byte offset), seeded bit-flips (every block ordinal), torn
 * final blocks, and the damage-report / writeRepaired contract.
 *
 * The salvage acceptance property: for ANY prefix or single-bit
 * corruption of a store, opening with StoreOpen::Salvage never
 * crashes, recovers exactly the CRC-valid complete blocks, and the
 * damage mask agrees with the injected fault.
 */

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "fault/atomic_file.hh"
#include "fault/fault.hh"
#include "store/store.hh"
#include "trace/trace.hh"

namespace icicle
{
namespace
{

/** Disarm the global plan around every test, pass or fail. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { setFaultSpec(""); }
    void TearDown() override { setFaultSpec(""); }
};

class ScratchFile
{
  public:
    explicit ScratchFile(const char *name)
        : filePath(std::string("/tmp/icicle_fault_") + name)
    {}
    ~ScratchFile()
    {
        std::remove(filePath.c_str());
        std::remove((filePath + ".tmp").c_str());
    }
    const std::string &path() const { return filePath; }

  private:
    std::string filePath;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** A small bursty trace over a multi-lane spec. */
Trace
burstyTrace(u64 seed, u64 cycles)
{
    TraceSpec spec;
    spec.addLane(EventId::FetchBubbles, 0);
    spec.addLane(EventId::FetchBubbles, 1);
    spec.addLane(EventId::Recovering, 0);
    spec.addLane(EventId::InstRetired, 0);
    spec.addLane(EventId::BranchMispredict, 0);

    Rng rng(seed * 2654435761u + 5);
    Trace trace(spec);
    u64 word = 0;
    for (u64 c = 0; c < cycles; c++) {
        for (u32 f = 0; f < spec.numFields(); f++) {
            if (rng.chance(1, f < 3 ? 30 : 4))
                word ^= 1ull << f;
        }
        trace.append(word);
    }
    return trace;
}

// ---- FaultPlan spec parsing -----------------------------------------

TEST_F(FaultTest, InactivePlanByDefault)
{
    EXPECT_FALSE(faultPlan().active());
    EXPECT_EQ(faultPlan().onWrite(FaultSite::StoreWrite),
              FaultPlan::WriteAction::None);
    const FaultPlan::JobDecision d = faultPlan().onJob(0);
    EXPECT_FALSE(d.fail);
    EXPECT_FALSE(d.hang);
}

TEST_F(FaultTest, ParsesEveryClauseKind)
{
    setFaultSpec("seed=7, short-write@store#2, enospc@journal#0, "
                 "kill@report#1, torn-final@store, bitflip@store#3, "
                 "fail@job#5=2, hang@job#9");
    EXPECT_TRUE(faultPlan().active());
    const std::string desc = faultPlan().describe();
    EXPECT_NE(desc.find("short-write@store#2"), std::string::npos);
    EXPECT_NE(desc.find("fail@job#5"), std::string::npos);
}

TEST_F(FaultTest, MalformedSpecsAreFatal)
{
    EXPECT_THROW(setFaultSpec("bogus-kind@store#0"), FatalError);
    EXPECT_THROW(setFaultSpec("short-write@nowhere#0"), FatalError);
    EXPECT_THROW(setFaultSpec("short-write@store#abc"), FatalError);
    EXPECT_THROW(setFaultSpec("fail@store#0"), FatalError);
    // A failed reset leaves the plan disarmed, not half-armed.
    EXPECT_FALSE(faultPlan().active());
}

TEST_F(FaultTest, ClausesFireAtTheirOrdinalThenExpire)
{
    setFaultSpec("enospc@report#2");
    EXPECT_EQ(faultPlan().onWrite(FaultSite::ReportWrite),
              FaultPlan::WriteAction::None); // op 0
    EXPECT_EQ(faultPlan().onWrite(FaultSite::StoreWrite),
              FaultPlan::WriteAction::None); // other site, op 0
    EXPECT_EQ(faultPlan().onWrite(FaultSite::ReportWrite),
              FaultPlan::WriteAction::None); // op 1
    EXPECT_EQ(faultPlan().onWrite(FaultSite::ReportWrite),
              FaultPlan::WriteAction::Enospc); // op 2: fires
    EXPECT_EQ(faultPlan().onWrite(FaultSite::ReportWrite),
              FaultPlan::WriteAction::None); // expired
}

TEST_F(FaultTest, JobClauseFiresBoundedTimes)
{
    setFaultSpec("fail@job#3=2");
    EXPECT_FALSE(faultPlan().onJob(0).fail);
    EXPECT_TRUE(faultPlan().onJob(3).fail);
    EXPECT_TRUE(faultPlan().onJob(3).fail);
    EXPECT_FALSE(faultPlan().onJob(3).fail) << "clause must expire";
}

// ---- serve-path (network-level) clauses -----------------------------

TEST_F(FaultTest, ServeSiteNamesCoverEverySite)
{
    EXPECT_STREQ(faultSiteName(FaultSite::ConnAccept), "accept");
    EXPECT_STREQ(faultSiteName(FaultSite::ConnReply), "reply");
    EXPECT_STREQ(faultSiteName(FaultSite::ConnRead), "read");
    EXPECT_STREQ(faultSiteName(FaultSite::ConnWrite), "write");
    EXPECT_STREQ(faultSiteName(FaultSite::WorkerDispatch), "worker");
}

/**
 * Parse → describe round-trip for every serve-path clause: the
 * describe() rendering must be re-parseable and name the same site,
 * ordinal, and (for stalls) duration — that string is what
 * icicle-chaos records per episode, so a drift here breaks replay.
 */
TEST_F(FaultTest, ServeClausesParseAndDescribeRoundTrip)
{
    const char *clauses[] = {
        "conn-reset@accept#2", "conn-reset@reply#0",
        "stall@read#1=250",    "stall@write#3=1000",
        "torn-frame@reply#4",  "kill@worker#1",
    };
    for (const char *clause : clauses) {
        SCOPED_TRACE(clause);
        setFaultSpec(clause);
        EXPECT_TRUE(faultPlan().active());
        const std::string desc = faultPlan().describe();
        EXPECT_NE(desc.find(clause), std::string::npos) << desc;
        // The rendering itself is a valid spec.
        setFaultSpec(desc.substr(desc.find(", ") + 2));
        EXPECT_TRUE(faultPlan().active());
        setFaultSpec("");
    }
}

TEST_F(FaultTest, ConnAcceptClauseFiresAtItsOrdinalOnce)
{
    setFaultSpec("conn-reset@accept#1");
    EXPECT_FALSE(faultPlan().onAccept()); // conn 0
    EXPECT_TRUE(faultPlan().onAccept());  // conn 1: fires
    EXPECT_FALSE(faultPlan().onAccept()); // expired
}

TEST_F(FaultTest, ReplyResetAndTornShareOneOrdinalCounter)
{
    // The documented contract: conn-reset@reply and torn-frame@reply
    // consume the same ConnReply ordinal stream, so one schedule
    // interleaves them deterministically.
    setFaultSpec("conn-reset@reply#0, torn-frame@reply#2");
    EXPECT_EQ(faultPlan().onReply(),
              FaultPlan::ReplyAction::Reset); // reply 0
    EXPECT_EQ(faultPlan().onReply(),
              FaultPlan::ReplyAction::None); // reply 1
    EXPECT_EQ(faultPlan().onReply(),
              FaultPlan::ReplyAction::Torn); // reply 2
    EXPECT_EQ(faultPlan().onReply(), FaultPlan::ReplyAction::None);
}

TEST_F(FaultTest, StallClausesCarryDurationNotRepeatCount)
{
    // The =N tail of a stall clause is milliseconds; the clause
    // still fires exactly once, at its ordinal.
    setFaultSpec("stall@read#1=750, stall@write#0=200");
    EXPECT_EQ(faultPlan().onConnRead(), 0u);    // read 0
    EXPECT_EQ(faultPlan().onConnRead(), 750u);  // read 1: fires
    EXPECT_EQ(faultPlan().onConnRead(), 0u);    // expired
    EXPECT_EQ(faultPlan().onConnWrite(), 200u); // write 0: fires
    EXPECT_EQ(faultPlan().onConnWrite(), 0u);
}

TEST_F(FaultTest, WorkerKillConsumesDispatchOrdinals)
{
    setFaultSpec("kill@worker#1");
    EXPECT_FALSE(faultPlan().onWorkerDispatch()); // dispatch 0
    EXPECT_TRUE(faultPlan().onWorkerDispatch());  // dispatch 1
    EXPECT_FALSE(faultPlan().onWorkerDispatch());
    // kill@worker is distinct from the write-site kill@SITE kinds:
    // it must not consume or fire on write ops.
    setFaultSpec("kill@worker#0");
    EXPECT_EQ(faultPlan().onWrite(FaultSite::StoreWrite),
              FaultPlan::WriteAction::None);
    EXPECT_TRUE(faultPlan().onWorkerDispatch());
}

TEST_F(FaultTest, ServeSitesKeepIndependentOrdinalStreams)
{
    // Accept, read, write, and dispatch ordinals are per-site: ops
    // at one site never advance another site's counter.
    setFaultSpec("conn-reset@accept#0, stall@read#0=100, "
                 "stall@write#0=100, kill@worker#0");
    EXPECT_EQ(faultPlan().onConnRead(), 100u);
    EXPECT_EQ(faultPlan().onConnWrite(), 100u);
    EXPECT_TRUE(faultPlan().onAccept());
    EXPECT_TRUE(faultPlan().onWorkerDispatch());
}

TEST_F(FaultTest, MalformedServeClausesAreFatal)
{
    // Wrong site for the kind.
    EXPECT_THROW(setFaultSpec("conn-reset@store#0"), FatalError);
    EXPECT_THROW(setFaultSpec("conn-reset@read#0"), FatalError);
    EXPECT_THROW(setFaultSpec("stall@accept#0=100"), FatalError);
    EXPECT_THROW(setFaultSpec("torn-frame@accept#0"), FatalError);
    // Missing required pieces.
    EXPECT_THROW(setFaultSpec("conn-reset@accept"), FatalError);
    EXPECT_THROW(setFaultSpec("stall@read#0"), FatalError);
    EXPECT_THROW(setFaultSpec("stall@read#0=0"), FatalError);
    EXPECT_THROW(setFaultSpec("torn-frame@reply"), FatalError);
    EXPECT_THROW(setFaultSpec("kill@worker"), FatalError);
    EXPECT_FALSE(faultPlan().active());
}

// ---- AtomicFile ------------------------------------------------------

TEST_F(FaultTest, AtomicFileCommitPublishesDiscardDoesNot)
{
    ScratchFile file("atomic.bin");
    {
        AtomicFile out(file.path(), FaultSite::ReportWrite);
        out.append(std::string("hello "));
        out.append(std::string("world"));
        EXPECT_EQ(out.size(), 11u);
        // Nothing visible at the target before commit.
        EXPECT_FALSE(std::filesystem::exists(file.path()));
        out.commit();
        EXPECT_TRUE(out.committed());
    }
    EXPECT_EQ(slurp(file.path()), "hello world");
    EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));

    {
        AtomicFile out(file.path(), FaultSite::ReportWrite);
        out.append(std::string("garbage"));
        out.discard();
    }
    // The discard must not clobber the committed content.
    EXPECT_EQ(slurp(file.path()), "hello world");
    EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
}

TEST_F(FaultTest, InjectedWriteFailureLeavesNoArtifact)
{
    for (const char *spec :
         {"short-write@report#0", "enospc@report#0"}) {
        SCOPED_TRACE(spec);
        setFaultSpec(spec);
        ScratchFile file("fault.bin");
        EXPECT_THROW(writeFileAtomic(file.path(), "payload",
                                     FaultSite::ReportWrite),
                     FatalError);
        EXPECT_FALSE(std::filesystem::exists(file.path()));
        EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
        setFaultSpec("");
    }
}

TEST_F(FaultTest, InjectedFaultDoesNotClobberPreviousCommit)
{
    ScratchFile file("keep.bin");
    writeFileAtomic(file.path(), "golden", FaultSite::ReportWrite);
    setFaultSpec("enospc@report#0");
    EXPECT_THROW(writeFileAtomic(file.path(), "replacement",
                                 FaultSite::ReportWrite),
                 FatalError);
    setFaultSpec("");
    EXPECT_EQ(slurp(file.path()), "golden");
}

// ---- salvage: exhaustive truncation ---------------------------------

TEST_F(FaultTest, SalvageSurvivesTruncationAtEveryByteOffset)
{
    ScratchFile good("trunc_good.icst");
    ScratchFile cut("trunc_cut.icst");
    const u64 kBlock = 64, kCycles = 5 * kBlock + 17;
    const Trace trace = burstyTrace(3, kCycles);
    trace.toStore(good.path(), kBlock);
    const std::string bytes = slurp(good.path());
    ASSERT_GT(bytes.size(), 0u);

    u64 last_recovered = 0;
    bool reached_full = false;
    for (u64 len = 0; len <= bytes.size(); len++) {
        SCOPED_TRACE("prefix length " + std::to_string(len));
        {
            std::ofstream out(cut.path(), std::ios::binary);
            out.write(bytes.data(), static_cast<std::streamsize>(len));
        }
        u64 recovered = 0;
        try {
            StoreReader reader(cut.path(), StoreOpen::Salvage);
            const StoreDamage &damage = reader.damage();
            EXPECT_TRUE(damage.salvaged);
            recovered = damage.recoveredBlocks;
            // Recovered blocks form an intact prefix whose counts
            // must match the original trace exactly.
            if (damage.recoveredCycles > 0 &&
                damage.recoveredCycles <= kCycles) {
                const u64 window = damage.recoveredCycles;
                const u64 mask =
                    trace.spec().fieldMask(EventId::FetchBubbles);
                u64 expected = 0;
                for (u64 c = 0; c < window; c++)
                    expected += static_cast<u64>(
                        std::popcount(trace.raw()[c] & mask));
                EXPECT_EQ(reader.countInWindow(EventId::FetchBubbles,
                                               0, window),
                          expected);
            }
            if (len == bytes.size()) {
                EXPECT_TRUE(damage.clean());
                EXPECT_TRUE(damage.indexValid);
                EXPECT_EQ(damage.recoveredCycles, kCycles);
                reached_full = true;
            }
        } catch (const StoreError &err) {
            // Only the untrusted-header region may refuse salvage.
            EXPECT_EQ(err.kind(), StoreErrorKind::Unrecoverable)
                << err.what();
            recovered = 0;
        }
        // Monotone recovery: more bytes never recover fewer blocks.
        EXPECT_GE(recovered + 1, last_recovered)
            << "recovery must not regress with longer prefixes";
        last_recovered = recovered;
    }
    EXPECT_TRUE(reached_full);
    EXPECT_EQ(last_recovered, 6u); // 5 full blocks + 17-cycle tail
}

/**
 * Content check for the truncation fuzz above, at the block level:
 * each complete block that a prefix keeps must read back with the
 * exact per-event counts of the original trace.
 */
TEST_F(FaultTest, SalvagedPrefixBlocksReadBackExactly)
{
    ScratchFile good("prefix_good.icst");
    ScratchFile cut("prefix_cut.icst");
    const u64 kBlock = 128, kCycles = 4 * kBlock;
    const Trace trace = burstyTrace(9, kCycles);
    trace.toStore(good.path(), kBlock);
    const std::string bytes = slurp(good.path());

    // Sample a spread of prefix lengths (the exhaustive sweep above
    // covers every offset; here we decode and compare content).
    for (u64 len = bytes.size() / 7; len <= bytes.size();
         len += bytes.size() / 7) {
        SCOPED_TRACE("prefix length " + std::to_string(len));
        {
            std::ofstream out(cut.path(), std::ios::binary);
            out.write(bytes.data(), static_cast<std::streamsize>(len));
        }
        try {
            StoreReader reader(cut.path(), StoreOpen::Salvage);
            const u64 have = reader.damage().recoveredCycles;
            if (have == 0)
                continue;
            const Trace window = reader.readWindow(0, have);
            for (u64 c = 0; c < have; c++)
                ASSERT_EQ(window.raw()[c], trace.raw()[c])
                    << "cycle " << c;
        } catch (const StoreError &) {
            // Header-region truncation: nothing salvageable.
        }
    }
}

// ---- salvage: seeded bit flips --------------------------------------

TEST_F(FaultTest, BitFlipInAnyBlockIsIsolatedBySalvage)
{
    const u64 kBlock = 64, kCycles = 5 * kBlock;
    const Trace trace = burstyTrace(21, kCycles);

    for (u64 flipped = 0; flipped < 5; flipped++) {
        SCOPED_TRACE("bitflip in block " + std::to_string(flipped));
        ScratchFile file("bitflip.icst");
        setFaultSpec("seed=42,bitflip@store#" +
                     std::to_string(flipped));
        trace.toStore(file.path(), kBlock);
        setFaultSpec("");

        // Strict: the corruption must not pass verification. The
        // flip can land in a block footer (caught at open) or in a
        // plane (caught at verify) — either way a typed error.
        EXPECT_THROW(
            {
                StoreReader strict(file.path());
                strict.verify();
            },
            StoreError);

        // Salvage: exactly the flipped block is damaged.
        StoreReader reader(file.path(), StoreOpen::Salvage);
        const StoreDamage &damage = reader.damage();
        EXPECT_TRUE(damage.indexValid);
        ASSERT_EQ(damage.damaged.size(), 1u);
        EXPECT_EQ(damage.damaged[0].block, flipped);
        EXPECT_EQ(damage.damaged[0].startCycle, flipped * kBlock);
        EXPECT_EQ(damage.recoveredBlocks, 4u);
        EXPECT_EQ(damage.recoveredCycles, kCycles - kBlock);
        EXPECT_EQ(damage.damagedCycles, kBlock);
        EXPECT_FALSE(damage.clean());

        // Damage report carries the same mask.
        const std::string json = damage.toJson(file.path());
        EXPECT_NE(json.find("\"damaged_blocks\": 1"),
                  std::string::npos);
        EXPECT_NE(json.find("\"block\": " + std::to_string(flipped)),
                  std::string::npos);

        // Window queries over intact ranges are exact; windows
        // touching the damaged block refuse with a typed error.
        for (u64 b = 0; b < 5; b++) {
            const u64 begin = b * kBlock, end = begin + kBlock;
            if (b == flipped) {
                try {
                    reader.readWindow(begin, end);
                    FAIL() << "damaged window must throw";
                } catch (const StoreError &err) {
                    EXPECT_EQ(err.kind(),
                              StoreErrorKind::DamagedWindow);
                }
            } else {
                const Trace window = reader.readWindow(begin, end);
                for (u64 c = 0; c < kBlock; c++)
                    ASSERT_EQ(window.raw()[c], trace.raw()[begin + c]);
            }
        }

        // Repair re-streams the surviving blocks into a clean store.
        ScratchFile repaired("bitflip_repaired.icst");
        const u64 cycles = reader.writeRepaired(repaired.path());
        EXPECT_EQ(cycles, kCycles - kBlock);
        StoreReader clean(repaired.path());
        EXPECT_EQ(clean.numCycles(), kCycles - kBlock);
        clean.verify();
    }
}

// ---- salvage: torn final block --------------------------------------

TEST_F(FaultTest, TornFinalBlockRecoversEverythingBeforeIt)
{
    ScratchFile file("torn.icst");
    // A partial tail block (20 cycles) is the one that gets torn.
    const u64 kBlock = 64, kFull = 4 * kBlock, kCycles = kFull + 20;
    const Trace trace = burstyTrace(33, kCycles);
    setFaultSpec("torn-final@store");
    trace.toStore(file.path(), kBlock);
    setFaultSpec("");

    // The torn store has no index/trailer: a strict open refuses.
    EXPECT_THROW(StoreReader strict(file.path()), StoreError);

    StoreReader reader(file.path(), StoreOpen::Salvage);
    const StoreDamage &damage = reader.damage();
    EXPECT_FALSE(damage.indexValid);
    EXPECT_EQ(damage.recoveredBlocks, 4u);
    EXPECT_EQ(damage.recoveredCycles, kFull);
    EXPECT_GT(damage.trailingBytes, 0u);
    const Trace window = reader.readWindow(0, kFull);
    for (u64 c = 0; c < kFull; c++)
        ASSERT_EQ(window.raw()[c], trace.raw()[c]);
}

// ---- store writer faults --------------------------------------------

TEST_F(FaultTest, StoreWriteFaultLeavesNoPartialStore)
{
    ScratchFile file("nospc.icst");
    setFaultSpec("enospc@store#0");
    const Trace trace = burstyTrace(5, 1000);
    EXPECT_THROW(trace.toStore(file.path(), 64), FatalError);
    setFaultSpec("");
    EXPECT_FALSE(std::filesystem::exists(file.path()))
        << "a failed store write must not publish the target";
    EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"))
        << "a failed store write must clean up its tmp file";
}

TEST_F(FaultTest, HeaderCorruptionIsUnrecoverable)
{
    ScratchFile file("header.icst");
    burstyTrace(8, 500).toStore(file.path(), 64);
    std::string bytes = slurp(file.path());
    bytes[6] ^= 0x10; // inside the field-table region
    {
        std::ofstream out(file.path(), std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    try {
        StoreReader reader(file.path(), StoreOpen::Salvage);
        FAIL() << "corrupted header must refuse salvage";
    } catch (const StoreError &err) {
        EXPECT_EQ(err.kind(), StoreErrorKind::Unrecoverable);
    }
}

} // namespace
} // namespace icicle
