/**
 * @file
 * Cycle-level model of the Rocket core: a 5-stage, single-issue,
 * in-order pipeline with a 2-wide frontend (Table IV), blocking-ish
 * L1 D-cache, BHT+BTB branch prediction, and the full Table I Rocket
 * event set including Icicle's three additions (inst-issued,
 * fetch-bubbles, recovering).
 *
 * The model is replay-based: the functional Executor supplies the
 * committed instruction stream; the pipeline model decides *when*
 * each instruction issues and raises the per-cycle event signals the
 * PMU counters and tracer consume. Wrong-path activity after a
 * mispredicted branch is modelled with synthetic wrong-path
 * instructions so the issued-but-flushed quantity behind the TMA
 * Bad-Speculation formula is physical, not inferred.
 */

#ifndef ICICLE_ROCKET_ROCKET_HH
#define ICICLE_ROCKET_ROCKET_HH

#include <array>

#include "bpred/bpred.hh"
#include "core/model.hh"
#include "core/pipebuf.hh"
#include "isa/executor.hh"
#include "mem/hierarchy.hh"
#include "pmu/csr.hh"
#include "pmu/event.hh"

namespace icicle
{

/** Rocket configuration (Table IV column 1 by default). */
struct RocketConfig
{
    u32 fetchWidth = 2;
    u32 ibufEntries = 8;
    u32 bhtEntries = 512;
    u32 btbEntries = 28;
    u32 mulLatency = 4;
    u32 divLatency = 32;
    /** Cycles from flush to the frontend fetching again. */
    u32 redirectLatency = 2;
    MemConfig mem;
    CounterArch counterArch = CounterArch::Scalar;
};

/**
 * The Rocket core timing model. Construct with a Program, then call
 * run() (or runCoreLoop() with a per-cycle hook, e.g. a tracer).
 */
class RocketCore final : public CoreModel<RocketCore>
{
  public:
    RocketCore(const RocketConfig &config, const Program &program);

    Executor &executor() override { return exec; }
    MemHierarchy &memory() { return mem; }

    CoreKind kind() const override { return CoreKind::Rocket; }
    u32 coreWidth() const override { return 1; }
    u32 issueWidth() const override { return 1; }
    const char *name() const override { return "Rocket"; }

    const RocketConfig &config() const { return cfg; }

  private:
    friend class CoreModel<RocketCore>;

    /**
     * One cycle: backend, then frontend. `active` marks an issue, a
     * mispredict resolution, a fetch step and the tick that ends the
     * redirect countdown.
     */
    void stages();
    void tickFrontend();
    void tickBackend();
    /** Fetch-time prediction for a control-flow instruction. */
    void predictControlFlow(PipeUop &entry);
    void raiseRetireClassEvents(const Retired &ret);

    /**
     * Cycles after an idle tick before the earliest timer can change
     * what a tick does: icacheReadyAt, serializeUntil, dcacheReadyAt,
     * divBusyUntil, resolveAt, the stalled operands' regReady and the
     * redirect countdown.
     */
    u64 idleCycles() const;

    RocketConfig cfg;
    Executor exec;
    MemHierarchy mem;
    Bht bht;
    Btb btb;
    Ras ras;

    // ---- frontend state ----
    UopRing ibuf;
    /** Oracle stream lookahead: next correct-path instruction. */
    bool streamValid = false;
    Retired streamHead;
    bool streamDone = false;
    /** Fetching down the wrong path until the mispredict resolves. */
    bool wrongPathMode = false;
    Addr wrongPathPc = 0;
    /** I-cache refill completes at this cycle. */
    Cycle icacheReadyAt = 0;
    /** Block address of the last fetched instruction. */
    u64 lastFetchBlock = ~0ull;
    /** Recovering: no valid fetch packet delivered since last flush. */
    bool recovering = false;

    // ---- backend state ----
    /** Cycle at which each architectural register's value is ready. */
    std::array<Cycle, 32> regReady{};
    /** What produced the pending value (for stall attribution). */
    std::array<InstClass, 32> regProducer{};
    Cycle divBusyUntil = 0;
    Cycle dcacheReadyAt = 0;
    /** The outstanding D$ refill is served by DRAM (level-3 TMA). */
    bool dcacheRefillFromDram = false;
    /** In-flight mispredicted branch resolves at this cycle. */
    bool resolvePending = false;
    Cycle resolveAt = 0;
    bool resolveTargetMispredict = false;
    /** CSR/fence serialization: issue stalls until this cycle. */
    Cycle serializeUntil = 0;
};

extern template class CoreModel<RocketCore>;

} // namespace icicle

#endif // ICICLE_ROCKET_ROCKET_HH
