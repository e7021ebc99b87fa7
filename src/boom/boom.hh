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
#include <functional>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "bpred/bpred.hh"
#include "core/core.hh"
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
class BoomCore final : public Core
{
  public:
    BoomCore(const BoomConfig &config, const Program &program);

    void tick() override;
    bool done() const override { return halted; }
    u64 run(u64 max_cycles = ~0ull,
            const std::function<void(Cycle, const EventBus &)> &on_cycle =
                nullptr) override;

    /**
     * Batch tick loop with a statically-dispatched per-cycle hook:
     * the class is final, so the hook inlines — no per-cycle virtual
     * or std::function dispatch. Each step is one tick plus, when
     * that tick was idle, the identical cycles tickSpan() skips; the
     * hook gets them through deliverSpan().
     */
    template <typename F>
    u64
    runLoop(u64 max_cycles, F &&on_cycle)
    {
        u64 simulated = 0;
        while (!halted && simulated < max_cycles) {
            const Cycle first = now;
            const u64 count = tickSpan(max_cycles - simulated);
            deliverSpan(on_cycle, first, events, count);
            simulated += count;
        }
        return simulated;
    }

    Cycle cycle() const override { return now; }
    const EventBus &bus() const override { return events; }
    CsrFile &csrFile() override { return csrs; }
    Executor &executor() override { return exec; }
    MemHierarchy &memory() { return mem; }
    const BoomConfig &config() const { return cfg; }

    CoreKind kind() const override { return CoreKind::Boom; }
    u32 coreWidth() const override { return cfg.coreWidth; }
    u32 issueWidth() const override { return cfg.totalIssueWidth(); }
    const char *name() const override { return cfg.name.c_str(); }

    u64 total(EventId id) const override
    { return totals[static_cast<u32>(id)]; }
    /** Per-source totals (Table V per-lane experiments). */
    u64
    laneTotal(EventId id, u32 lane) const override
    {
        return laneTotals[static_cast<u32>(id)][lane];
    }

    u64 machineClears() const { return numMachineClears; }
    u64 branchMispredicts() const
    { return totals[static_cast<u32>(EventId::BranchMispredict)]; }

  private:
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

    // Pipeline stages, called youngest-to-oldest each tick.
    void stageCommit();
    void stageIssue();
    void stageComplete();
    void stageDispatch();
    void stageFetch();

    /**
     * Tick once. If the tick changed nothing but timers, every cycle
     * before the next timer fires repeats it exactly: account up to
     * budget - 1 of them at once. Returns the cycles simulated (at
     * least 1, at most budget).
     */
    u64 tickSpan(u64 budget);

    /**
     * Cycles after an idle tick before the earliest timer can change
     * what a tick does: the completion-heap top, the earliest MSHR
     * fill, icacheReadyAt, divBusyUntil and the redirect countdown.
     */
    u64 idleCycles() const;
    /** Account `cycles` more cycles with the current bus. */
    void account(u64 cycles);
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
    EventBus events;
    CsrFile csrs;
    std::array<u64, kNumEvents> totals{};
    std::array<std::array<u64, kMaxSources>, kNumEvents> laneTotals{};

    Cycle now = 0;
    bool halted = false;
    /**
     * This tick changed state besides a countdown, or ended the
     * redirect countdown: a commit, a completion pop or MSHR free, an
     * issue or squashed-entry drop, a dispatch, a fetch step, or a
     * TLB lookup while the TLBs are on.
     */
    bool active = false;
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
    u32 redirectWait = 0;
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

} // namespace icicle

#endif // ICICLE_BOOM_BOOM_HH
