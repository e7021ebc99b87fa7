/**
 * @file
 * The three counter-increment architectures of §IV-B, one state
 * machine each.
 *
 * All three count one (possibly multi-source) event. Scalar dedicates
 * one hardware counter per source; AddWires aggregates sources through
 * a chain of local adders into a single multi-bit increment; the
 * DistributedCounters design places a small counter at each source and
 * drains overflow bits through a rotating one-hot arbiter, trading a
 * bounded end-of-run undercount for short one-bit wires.
 *
 * A machine is a plain value: its fields are its whole state, so a
 * copy is a snapshot and an assignment restores one. Every CsrFile
 * counter holds one, and the model checker (src/prove/), E19 and the
 * unit tests drive the same code. step(mask) advances one cycle with
 * the bitmask of asserted sources (bits at or above the machine's
 * source count must be clear); step(mask, cycles) advances `cycles`
 * cycles that all carry that mask and equals that many step(mask)
 * calls. Both return true when a register wrapped its hpmWidth bits.
 */

#ifndef ICICLE_PMU_COUNTERS_HH
#define ICICLE_PMU_COUNTERS_HH

#include <variant>
#include <vector>

#include "pmu/event.hh"

namespace icicle
{

namespace csr
{
/**
 * Implemented width of each programmable counter register. The RTL
 * does not flop a full 64 bits per counter; like real designs it
 * implements a narrower register and software is expected to harvest
 * before it wraps. The model reproduces that wrap (value truncates to
 * hpmWidth bits) but, unlike silicon, reports it so the CSR file can
 * latch a sticky per-counter saturation flag and the perf harness can
 * mark the affected TMA inputs unreliable instead of silently
 * under-counting.
 */
constexpr u32 hpmWidth = 48;
constexpr u64 hpmValueMask = (1ull << hpmWidth) - 1;
} // namespace csr

/** Which §IV-B implementation a counter uses. */
enum class CounterArch : u8 { Scalar, AddWires, Distributed };

const char *counterArchName(CounterArch arch);

/**
 * The paper's Distributed local width for `sources` local counters:
 * ceil(log2(sources)), at least 1 bit, so each local counter absorbs
 * the events of one full arbiter rotation.
 */
u32 localWidthFor(u32 sources);

/**
 * Worst-case end-of-run undercount of a Distributed principal
 * register, in events: sources x 2^width.
 */
u64 undercountBound(u32 sources, u32 width);

/** Adders in an AddWires aggregation chain over `sources` inputs. */
u32 addWiresChainLength(u32 sources);

/**
 * Scalar: one full-width register per event source, plus the shared
 * register a multi-source selector maps onto. Exact per lane, but
 * consumes `sources` hardware counters and routes every source wire
 * to the (centrally placed) counter file.
 */
struct ScalarMachine
{
    /**
     * The counter's register. With several sources mapped to one
     * counter it keeps Fig. 1's legacy OR: one count per cycle in
     * which any of them is high.
     */
    u64 value = 0;
    /** The register dedicated to each source lane. */
    std::vector<u64> lanes;

    explicit ScalarMachine(u32 sources = 0) : lanes(sources, 0) {}

    bool step(u64 mask) { return step(mask, 1); }
    bool step(u64 mask, u64 cycles);

    u64 read() const { return value; }
    u64 corrected() const { return value; }
    /** Events the lane registers hold: one per source per cycle. */
    u64 counted() const;
    void write(u64 v) { value = v; }
    void clearAccumulators();

    bool operator==(const ScalarMachine &) const = default;
};

/**
 * AddWires: a sequential chain of local adders produces a multi-bit
 * increment (the popcount of asserted sources) consumed by a single
 * register. Exact; the chain adds combinational delay that grows with
 * the number of sources (§V-C).
 */
struct AddWiresMachine
{
    u64 value = 0;

    bool step(u64 mask) { return step(mask, 1); }
    bool step(u64 mask, u64 cycles);

    u64 read() const { return value; }
    u64 corrected() const { return value; }
    u64 counted() const { return value; }
    void write(u64 v) { value = v; }
    void clearAccumulators() { value = 0; }

    bool operator==(const AddWiresMachine &) const = default;
};

/**
 * DistributedCounters: a local counter of `width` bits next to each
 * source. When a local counter wraps it latches an overflow bit. A
 * rotating one-hot select visits one source per cycle; if that
 * source's overflow latch is set, the principal register increments
 * by one (representing 2^width events) and the latch clears
 * (clear-on-read).
 *
 * The principal register therefore undercounts by at most
 * undercountBound() at the end of a run; residue() exposes the exact
 * leftover so host software can correct the value, as the artifact's
 * post-processing step does. A machine with no sources (an
 * unconfigured counter) is a bare register: wrap 1, no residue.
 */
struct DistributedMachine
{
    /** Bits per local counter. */
    u32 width = 0;
    /** The local counter next to each source. */
    std::vector<u64> local;
    /** Overflow latches, bit s for source s. */
    u64 overflow = 0;
    /** Rotating one-hot arbiter position. */
    u32 select = 0;
    /** Principal register, in units of 2^width events. */
    u64 principal = 0;

    /** @param local_width 0 sizes the local counters localWidthFor(). */
    explicit DistributedMachine(u32 sources = 0, u32 local_width = 0);

    bool step(u64 mask);
    bool step(u64 mask, u64 cycles);

    u64 read() const { return principal; }
    /** Events not yet reflected in the principal register. */
    u64 residue() const;
    u64 corrected() const { return principal * wrap() + residue(); }
    u64 counted() const { return corrected(); }
    void write(u64 v) { principal = v; }
    void clearAccumulators() { principal = 0; }

    u32 sources() const { return static_cast<u32>(local.size()); }
    u64 wrap() const { return 1ull << width; }
    u64 undercountBound() const
    {
        return icicle::undercountBound(sources(), width);
    }

    bool operator==(const DistributedMachine &) const = default;
};

/** One counter under any architecture; index() is its CounterArch. */
using CounterMachine =
    std::variant<ScalarMachine, AddWiresMachine, DistributedMachine>;

/** A reset machine of `arch` watching `sources` sources. */
CounterMachine makeMachine(CounterArch arch, u32 sources);

} // namespace icicle

#endif // ICICLE_PMU_COUNTERS_HH
