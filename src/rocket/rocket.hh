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
#include <functional>

#include "bpred/bpred.hh"
#include "core/core.hh"
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
 * run() (or tick() manually, e.g. under a tracer).
 */
class RocketCore final : public Core
{
  public:
    RocketCore(const RocketConfig &config, const Program &program);

    /** Advance one clock cycle. */
    void tick() override;

    /** Has the program halted and the pipeline drained? */
    bool done() const override;

    /**
     * Run until done (or max_cycles). Returns cycles simulated.
     * @param on_cycle optional per-cycle hook (tracer attach point),
     * called after each tick with the live event bus.
     */
    u64 run(u64 max_cycles = ~0ull,
            const std::function<void(Cycle, const EventBus &)> &on_cycle =
                nullptr) override;

    /**
     * Batch tick loop with a statically-dispatched per-cycle hook:
     * the class is final, so the hook inlines — no per-cycle virtual
     * or std::function dispatch. run() and the Session/tracer paths
     * route through this. Each step is one tick plus, when that tick
     * was idle, the identical cycles tickSpan() skips; the hook gets
     * them through deliverSpan().
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

    CoreKind kind() const override { return CoreKind::Rocket; }
    u32 coreWidth() const override { return 1; }
    u32 issueWidth() const override { return 1; }
    const char *name() const override { return "Rocket"; }

    /** Exact host-side event totals (sum of source bits per cycle). */
    u64 total(EventId id) const override
    { return totals[static_cast<u32>(id)]; }
    u64 laneTotal(EventId id, u32 lane) const override
    { return lane == 0 ? total(id) : 0; }

    const RocketConfig &config() const { return cfg; }

  private:
    void tickFrontend();
    void tickBackend();
    /** Fetch-time prediction for a control-flow instruction. */
    void predictControlFlow(PipeUop &entry);
    void raiseRetireClassEvents(const Retired &ret);
    /**
     * Tick once. If the tick changed nothing but timers, every cycle
     * before the next timer fires repeats it exactly: account up to
     * budget - 1 of them at once. Returns the cycles simulated (at
     * least 1, at most budget).
     */
    u64 tickSpan(u64 budget);

    /**
     * Cycles after an idle tick before the earliest timer can change
     * what a tick does: icacheReadyAt, serializeUntil, dcacheReadyAt,
     * divBusyUntil, resolveAt, the stalled operands' regReady and the
     * redirect countdown.
     */
    u64 idleCycles() const;
    /** Account `cycles` more cycles with the current bus. */
    void account(u64 cycles);

    RocketConfig cfg;
    Executor exec;
    MemHierarchy mem;
    Bht bht;
    Btb btb;
    Ras ras;
    EventBus events;
    CsrFile csrs;
    std::array<u64, kNumEvents> totals{};

    Cycle now = 0;
    /**
     * This tick changed state besides a countdown, or ended the
     * redirect countdown: an issue, a mispredict resolution or a
     * fetch step.
     */
    bool active = false;

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
    /** Cycles the frontend must wait after a redirect. */
    u32 redirectWait = 0;

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
    bool halted = false;
};

} // namespace icicle

#endif // ICICLE_ROCKET_ROCKET_HH
