/**
 * @file
 * Perf software harness (paper §IV-D).
 *
 * Programs the core's CSR-based counters through the same four-step
 * protocol the real harness performs from M-mode / OpenSBI:
 *   (1) enable the CSRs, (2) write the event-set id, (3) write the
 *   event mask, (4) clear the inhibit bit.
 *
 * The harness is architecture-aware: with Scalar counters a
 * multi-source event occupies one hardware counter per lane; with
 * AddWires or DistributedCounters it occupies one. When a request
 * does not fit the 29 programmable counters, the harness
 * time-multiplexes counter groups across epochs and scales the
 * counts, like perf-event multiplexing on real systems.
 */

#ifndef ICICLE_PERF_HARNESS_HH
#define ICICLE_PERF_HARNESS_HH

#include <vector>

#include "core/core.hh"
#include "tma/tma.hh"

namespace icicle
{

/** One counter allocation: an event, possibly a single lane of it. */
struct PerfAllocation
{
    EventId event;
    /** 0 = all lanes through one counter; k = lane k-1 only. */
    u32 lanePlusOne = 0;
    /** Which multiplex group this allocation belongs to. */
    u32 group = 0;
    /** HPM index within its group. */
    u32 hpmIndex = 0;
    /** Accumulated (scaled at read time) count. */
    u64 accumulated = 0;
    /** The backing counter wrapped its hpmWidth-bit register. */
    bool saturated = false;
    /** The backing counter was written while armed (§IV-D breach). */
    bool armedWrite = false;
};

/** Why one counted event's value cannot be trusted. */
struct UnreliableEvent
{
    EventId event;
    bool saturated = false;
    bool armedWrite = false;
    /** Its multiplex group never ran, so its value reads 0. */
    bool notCounted = false;
};

/** Programs counters, runs the core, reads TMA inputs back. */
class PerfHarness
{
  public:
    explicit PerfHarness(Core &core);

    /** Request an event (all lanes, aggregated). */
    void addEvent(EventId event);
    /**
     * Request the standard TMA group. With level3 (default) the
     * Mem-Bound split extension event is included; the paper's own
     * top+second-level set (level3 = false) fits the 29 programmable
     * counters exactly even per-lane on GigaBOOM, while the extension
     * forces multiplexing under the Scalar architecture.
     */
    void addTmaEvents(bool level3 = true);

    /**
     * Run the workload with counting enabled, multiplexing groups
     * every `epoch` cycles when the request does not fit. The active
     * group and its epoch start carry over from the previous call, so
     * consecutive calls count exactly as one call of their total
     * length does.
     * @return cycles simulated
     */
    u64 run(u64 max_cycles = ~0ull, u64 epoch = 10000);

    /** Counted (and multiplex-scaled) value of an event. */
    u64 value(EventId event) const;
    /** TMA inputs assembled from counted values. */
    TmaCounters tmaCounters() const;

    /** Number of multiplex groups the allocation needed. */
    u32 numGroups() const { return groupCount; }
    /** Hardware counters used by the largest group. */
    u32 countersUsed() const { return maxGroupSize; }

    /**
     * Events whose counts are suspect: their backing counter either
     * saturated (wrapped its hpmWidth-bit register) or was written
     * while armed, or the run ended before their multiplex group was
     * ever programmed. Callers should surface these instead of
     * trusting the silently-degraded values.
     */
    std::vector<UnreliableEvent> unreliableEvents() const;
    /** True if any requested event came back unreliable. */
    bool anyUnreliable() const;

  private:
    void allocate();
    void programGroup(u32 group);
    void harvestGroup(u32 group);

    Core &core;
    std::vector<EventId> requested;
    std::vector<PerfAllocation> allocations;
    bool allocated = false;
    u32 groupCount = 1;
    u32 maxGroupSize = 0;
    /** Cycles each group was live (for multiplex scaling). */
    std::vector<u64> groupCycles;
    u64 totalCycles = 0;
    /** The group counting now, and the cycle its epoch began. */
    u32 active = 0;
    Cycle epochStart = 0;
};

} // namespace icicle

#endif // ICICLE_PERF_HARNESS_HH
