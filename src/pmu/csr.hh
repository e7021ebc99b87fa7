/**
 * @file
 * RISC-V control-and-status-register file holding the performance
 * counters (31 total: mcycle, minstret, and 29 programmable
 * mhpmcounters, matching Table IV's "31 Perf Counters").
 *
 * Event selection follows the paper's §IV-D protocol: software writes
 * an 8-bit event-set id and a 56-bit event mask into each counter's
 * mhpmevent register, then clears the inhibit bit to start counting.
 * Icicle extends the selector with a lane-select field so the Scalar
 * architecture can dedicate a counter to a single source of a
 * multi-source event (the real RTL exposes each lane wire as its own
 * event; a selector field expresses the same mapping here).
 */

#ifndef ICICLE_PMU_CSR_HH
#define ICICLE_PMU_CSR_HH

#include <array>
#include <vector>

#include "isa/executor.hh"
#include "pmu/counters.hh"
#include "pmu/event.hh"

namespace icicle
{

namespace csr
{
constexpr u32 mcycle = 0xB00;
constexpr u32 minstret = 0xB02;
constexpr u32 mhpmcounter3 = 0xB03; ///< ..mhpmcounter31 = 0xB1F
constexpr u32 mcountinhibit = 0x320;
constexpr u32 mhpmevent3 = 0x323;   ///< ..mhpmevent31 = 0x33F
constexpr u32 cycle = 0xC00;        ///< user-mode shadow
constexpr u32 instret = 0xC02;
constexpr u32 hpmcounter3 = 0xC03;

/** Number of programmable counters (3..31). */
constexpr u32 numHpm = 29;

/** Build an mhpmevent selector value. */
constexpr u64
selector(EventSetId set, u64 mask, u32 lane_plus_one = 0)
{
    return static_cast<u64>(set) | (mask << 8) |
           (static_cast<u64>(lane_plus_one) << 56);
}
} // namespace csr

/**
 * The CSR file. Acts as the CsrBackend for in-band software (the
 * Zicsr path through the Executor) and exposes a host-side view for
 * out-of-band tools.
 */
class CsrFile : public CsrBackend
{
  public:
    /**
     * @param core which core's event-set layout to use
     * @param arch counter architecture for the programmable counters
     * @param bus the core's event bus (geometry source)
     */
    CsrFile(CoreKind core, CounterArch arch, const EventBus *bus);

    /** Advance one cycle: sample the bus into every active counter. */
    void tick(const EventBus &bus);
    /**
     * Advance `cycles` cycles that all carry this bus: equal to that
     * many tick(bus) calls. mcycle and minstret move in closed form,
     * and each live counter takes the span in one step(mask, cycles).
     */
    void tick(const EventBus &bus, u64 cycles);

    // CsrBackend interface (in-band software access).
    u64 readCsr(u32 addr) override;
    void writeCsr(u32 addr, u64 value) override;

    // ---- host-side (out-of-band) interface -------------------------
    /** Raw value of programmable counter `index` (0..28). */
    u64 hpmValue(u32 index) const;
    /** Post-processed value (applies distributed-counter residue). */
    u64 hpmCorrected(u32 index) const;
    /** Program counter `index` to count `events` (same set). */
    void program(u32 index, const std::vector<EventId> &events,
                 u32 lane_plus_one = 0);
    /** Convenience: single event, all lanes. */
    void programEvent(u32 index, EventId event);
    void setInhibit(bool inhibit);
    bool inhibited() const { return (inhibitMask & 1) != 0; }
    /** Raw mhpmevent selector of counter `index` (0..28). */
    u64
    eventSelector(u32 index) const
    {
        return hpms[index].selector;
    }
    /** Raw mcountinhibit value. */
    u64 inhibitBits() const { return inhibitMask; }
    void clearCounters();

    // ---- reliability flags (graceful degradation) ------------------
    /**
     * Counter `index` wrapped its hpmWidth-bit register since it was
     * last programmed: its value silently lost 2^hpmWidth counts at
     * least once and cannot be trusted.
     */
    bool hpmSaturated(u32 index) const;
    /**
     * Counter `index` (its value or its event selector) was written
     * while the counter was *not* inhibited. The §IV-D protocol
     * requires inhibit around reconfiguration; an armed write races
     * the increment logic in hardware, so the count is suspect.
     */
    bool hpmArmedWrite(u32 index) const;
    /**
     * Sticky: in-band software read a configured programmable
     * counter. That is the only CSR read whose value depends on the
     * counter architecture (mcycle, minstret, selectors and
     * unconfigured counters read the same under all three), so while
     * it is clear the committed stream is architecture-independent.
     */
    bool configuredHpmRead() const { return configuredRead; }

    u64 cycles() const { return mcycleValue; }
    u64 instsRetired() const { return minstretValue; }

    CounterArch arch() const { return counterArch; }
    CoreKind core() const { return coreKind; }

    // ---- model-checker hooks (src/prove/) --------------------------
    /** Copy of counter `index`'s machine: its whole dynamic state. */
    CounterMachine snapshotHpm(u32 index) const;
    /** Restore counter `index` from a snapshot of the same wiring. */
    void restoreHpm(u32 index, const CounterMachine &machine);
    /**
     * Advance only counter `index` one cycle with an explicit
     * per-source bitmask over its decoded source list, honouring the
     * inhibit bit: the CSR-level step(mask).
     */
    void stepHpm(u32 index, u64 source_mask);

  private:
    /** One programmable counter's decoded configuration and state. */
    struct Hpm
    {
        u64 selector = 0;
        /** (event, source-bit) pairs this counter watches, in order. */
        std::vector<std::pair<EventId, u8>> sources;
        /** Source s of the machine is sources[s]. */
        CounterMachine machine;
        // Reliability flags — sticky until the counter is
        // reprogrammed. Deliberately NOT part of the machine: the
        // model checker canonicalizes accumulators, so a wrap is
        // unreachable there.
        bool saturated = false;
        bool armedWrite = false;
        /** Bitmask (bit = EventId) of events in `sources`. */
        u64 watchedEvents = 0;
    };

    void decodeSelector(Hpm &hpm, u64 value);
    void recomputeConfigured();
    /** Counters that are both configured and not inhibited. */
    u32 liveCounters() const;
    /** Bitmask of `hpm`'s sources that are high on `bus`. */
    static u64 sample(const Hpm &hpm, const EventBus &bus);
    /** readCsr() of counter `index`: latches configuredRead. */
    u64 readHpmInBand(u32 index);

    CoreKind coreKind;
    CounterArch counterArch;
    const EventBus *busGeometry;
    u64 mcycleValue = 0;
    u64 minstretValue = 0;
    u64 inhibitMask = ~0ull; ///< counters start inhibited (§IV-D step 4)
    /** Bit i set iff hpms[i] has a non-empty decoded source list. */
    u32 configuredMask = 0;
    bool configuredRead = false;
    std::array<Hpm, csr::numHpm> hpms;
};

} // namespace icicle

#endif // ICICLE_PMU_CSR_HH
