/**
 * @file
 * Cycle-level model of the BOOM (Berkeley Out-of-Order Machine) core:
 * a parametric superscalar out-of-order pipeline with a fetch buffer,
 * ROB, split integer/memory/floating-point issue queues with
 * wake-up-based selection, a non-blocking data cache with MSHRs,
 * TAGE+BTB branch prediction, and the full Table I BOOM event set
 * including Icicle's seven additions (uops-issued, fetch-bubbles,
 * recovering, uops-retired, fence-retired, I$-blocked, D$-blocked).
 *
 * Like the Rocket model it is replay-based: the functional Executor
 * supplies the committed stream, while wrong-path activity after
 * mispredicted branches is modelled with synthetic uops that rename,
 * issue, and get flushed — making the (C_issued - C_ret) quantity in
 * the paper's Bad-Speculation formula physically observable. Memory
 * ordering violations (machine clears) are modelled with speculative
 * load issue, a store-set style dependence predictor, and replay of
 * the squashed correct-path uops.
 */

#ifndef ICICLE_BOOM_BOOM_HH
#define ICICLE_BOOM_BOOM_HH

#include <array>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "bpred/bpred.hh"
#include "core/model.hh"
#include "core/pipebuf.hh"
#include "isa/executor.hh"
#include "mem/hierarchy.hh"
#include "mem/mshr.hh"
#include "pmu/csr.hh"
#include "pmu/event.hh"

namespace icicle
{

/** Issue-queue types (BOOM splits by functional-unit class). */
enum class IqType : u8 { Int = 0, Mem = 1, Fp = 2 };
constexpr u32 kNumIqs = 3;

/** BOOM configuration; factories cover the five Table IV sizes. */
struct BoomConfig
{
    std::string name = "LargeBoomV3";
    u32 fetchWidth = 8;
    u32 coreWidth = 3;       ///< decode = commit width (W_C)
    u32 fetchBufferEntries = 24;
    u32 robEntries = 96;
    std::array<u32, kNumIqs> iqEntries{16, 32, 24};
    std::array<u32, kNumIqs> issueWidth{2, 2, 1}; ///< sums to W_I
    u32 ldqEntries = 24;
    u32 stqEntries = 24;
    u32 numMshrs = 4;
    u32 mulLatency = 3;
    u32 divLatency = 16;
    /** Cycles for the frontend to restart after a flush (M_rl). */
    u32 frontendRestartCycles = 4;
    MemConfig mem;
    CounterArch counterArch = CounterArch::AddWires;

    u32
    totalIssueWidth() const
    {
        return issueWidth[0] + issueWidth[1] + issueWidth[2];
    }

    static BoomConfig small();
    static BoomConfig medium();
    static BoomConfig large();
    static BoomConfig mega();
    static BoomConfig giga();
    /** All five sizes, in Table IV order. */
    static std::vector<BoomConfig> allSizes();
};

/** The BOOM core timing model. */
class BoomCore final : public CoreModel<BoomCore>
{
  public:
    BoomCore(const BoomConfig &config, const Program &program);

    Executor &executor() override { return exec; }
    MemHierarchy &memory() { return mem; }
    const BoomConfig &config() const { return cfg; }

    CoreKind kind() const override { return CoreKind::Boom; }
    u32 coreWidth() const override { return cfg.coreWidth; }
    u32 issueWidth() const override { return cfg.totalIssueWidth(); }
    const char *name() const override { return cfg.name.c_str(); }

    u64 machineClears() const { return numMachineClears; }
    u64 branchMispredicts() const
    { return total(EventId::BranchMispredict); }

  private:
    friend class CoreModel<BoomCore>;

    enum class RobState : u8 { Waiting, InQueue, Issued, Done };

    /**
     * O(1) handle to an in-flight uop: the ROB slot recorded when the
     * seq was assigned. rob[slot].seq == seq validates the handle —
     * seqs are unique and monotonic, so a recycled slot can never
     * alias an old handle. Replaces the seq -> slot hash map that
     * dominated the BOOM tick profile (findBySeq was ~21% of host
     * time on the large config).
     */
    struct SeqSlot
    {
        u64 seq = 0;
        u32 slot = 0;
    };

    struct RobEntry
    {
        bool valid = false;
        u64 seq = 0;
        PipeUop uop;
        RobState state = RobState::Waiting;
        IqType iq = IqType::Int;
        /** Producer handles this uop waits on (seq 0 = none). */
        SeqSlot src[2];
        Cycle doneAt = 0;
        bool isMem = false;
        bool isStore = false;
        bool isFence = false;
    };

    /**
     * A scheduled writeback, as (cycle, seq << 16 | ROB slot): seqs
     * are unique, so the min-heap orders it exactly like (cycle, seq).
     */
    struct Completion
    {
        Cycle at = 0;
        u64 seqSlot = 0;
    };
    struct CompletionAfter
    {
        bool
        operator()(const Completion &a, const Completion &b) const
        {
            return a.at > b.at || (a.at == b.at && a.seqSlot > b.seqSlot);
        }
    };

    struct StqEntry
    {
        u64 seq = 0;
        Addr addr = 0;
        u8 size = 0;
        bool issued = false;
    };

    struct IssuedLoad
    {
        u64 seq = 0;
        Addr addr = 0;
        u8 size = 0;
        Addr pc = 0;
    };

    /**
     * One cycle: commit, complete, issue, dispatch, fetch. `active`
     * marks a commit, a completion pop or MSHR free, an issue or
     * squashed-entry drop, a dispatch, a fetch step, a TLB lookup
     * while the TLBs are on, and the tick that ends the redirect
     * countdown.
     */
    void stages();
    void stageCommit();
    void stageIssue();
    void stageComplete();
    void stageDispatch();
    void stageFetch();

    /**
     * Cycles after an idle tick before the earliest timer can change
     * what a tick does: the completion-heap top, the earliest MSHR
     * fill, icacheReadyAt, divBusyUntil and the redirect countdown.
     */
    u64 idleCycles() const;
    /** Data-TLB lookup for a load or store, raising its miss events. */
    TlbResult translateData(Addr addr);

    void predictControlFlow(PipeUop &uop);
    /** Squash all uops with seq >= first_bad; optionally replay. */
    void flushFrom(u64 first_bad, bool replay);
    void redirectFrontend();
    RobEntry *findBySeq(const SeqSlot &handle);
    bool sourcesReady(const RobEntry &entry) const;
    IqType routeToIq(Op op) const;

    BoomConfig cfg;
    Executor exec;
    MemHierarchy mem;
    MshrFile mshrs;
    Tage tage;
    Btb btb;
    Ras ras;

    u64 nextSeq = 1;

    // ---- frontend ----
    UopRing fetchBuffer;
    UopRing replayQueue; ///< machine-clear refetch path
    bool streamValid = false;
    Retired streamHead;
    bool streamDone = false;
    bool wrongPathMode = false;
    Addr wrongPathPc = 0;
    Cycle icacheReadyAt = 0;
    u64 lastFetchBlock = ~0ull;
    bool recovering = false;
    /** A fetched-but-uncommitted fence blocks further fetch. */
    bool fenceBlocking = false;

    // ---- backend ----
    std::vector<RobEntry> rob; ///< circular buffer
    u32 robHead = 0;           ///< oldest
    u32 robTail = 0;           ///< next free slot
    u32 robCount = 0;
    /** Arch reg -> handle of latest in-flight producer (0 = ready). */
    std::array<SeqSlot, 32> renameMap{};
    /** Issue queues hold uop handles, oldest first. */
    std::array<std::vector<SeqSlot>, kNumIqs> iqs;
    std::priority_queue<Completion, std::vector<Completion>,
                        CompletionAfter>
        completions;
    std::vector<StqEntry> stq;
    std::vector<IssuedLoad> issuedLoads;
    u32 ldqUsed = 0;
    Cycle divBusyUntil = 0;
    /** Store-set style memory dependence predictor. */
    std::set<Addr> stlDependents;
    u64 numMachineClears = 0;

    // per-cycle scratch shared between stages
    u32 issuedThisCycle = 0;
};

extern template class CoreModel<BoomCore>;

} // namespace icicle

#endif // ICICLE_BOOM_BOOM_HH
