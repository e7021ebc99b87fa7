/**
 * @file
 * Ring buffer of in-flight uops shared by the core timing models.
 *
 * Rocket's instruction buffer and BOOM's fetch/replay queues were
 * std::deque<struct>: every push/pop churned the deque's chunk map,
 * and the machine-clear replay path rebuilt a whole deque per flush.
 * Both also invited the reference-after-pop_front bug class that ASan
 * once caught here. UopRing replaces them with a power-of-two ring of
 * whole PipeUops: fetch fills each entry in place through pushBack(),
 * the consumer copies it out memory-to-memory, all steady-state
 * operations are allocation-free, and front()/at() return by value so
 * there is no reference to invalidate.
 */

#ifndef ICICLE_CORE_PIPEBUF_HH
#define ICICLE_CORE_PIPEBUF_HH

#include <vector>

#include "common/types.hh"
#include "isa/executor.hh"

namespace icicle
{

/** Speculation flags carried by an in-flight pipeline entry. */
namespace uopflag
{
constexpr u8 wrongPath = 1u << 0;
/** Mispredicted at fetch. */
constexpr u8 mispredicted = 1u << 1;
/** Mispredict was a pure target miss (JALR / BTB). */
constexpr u8 targetMispredict = 1u << 2;
} // namespace uopflag

/**
 * One in-flight frontend entry, shared by Rocket's instruction
 * buffer and BOOM's fetch/replay queues (both cores previously kept
 * structurally identical private structs).
 */
struct PipeUop
{
    Retired ret;
    /** Predicted (possibly wrong) next PC, for wrong-path fetch. */
    Addr predictedNext = 0;
    u8 flags = 0;

    bool wrongPath() const { return (flags & uopflag::wrongPath) != 0; }
    bool mispredicted() const
    {
        return (flags & uopflag::mispredicted) != 0;
    }
    bool targetMispredict() const
    {
        return (flags & uopflag::targetMispredict) != 0;
    }
};

/** Synthetic wrong-path uop: fetch copies it into a slot and sets its pcs. */
inline constexpr PipeUop kWrongPathUop{.ret = {.inst = {.op = Op::Addi}},
                                       .flags = uopflag::wrongPath};

/**
 * Ring buffer of PipeUops. Capacity is rounded up to a power of two
 * and grows by doubling only when a push finds the ring full, so
 * bounded buffers (ibuf, fetch buffer) never allocate after
 * construction and the unbounded replay queue allocates O(log n)
 * times total.
 */
class UopRing
{
  public:
    explicit UopRing(u64 min_capacity = 8)
    {
        u64 cap = 8;
        while (cap < min_capacity)
            cap <<= 1;
        slots.resize(cap);
        mask = cap - 1;
    }

    u64 size() const { return count; }
    bool empty() const { return count == 0; }
    void clear() { count = 0; head = 0; }

    /**
     * Append an entry and return its slot to fill in place. The slot
     * still holds whatever last occupied it, so the caller writes
     * every field. Like peekFront(), the reference is valid only
     * until the next push or pop.
     */
    PipeUop &
    pushBack()
    {
        if (count > mask)
            grow();
        return slots[(head + count++) & mask];
    }

    /** Prepend (used to splice replayed uops ahead of the queue). */
    void
    pushFront(const PipeUop &uop)
    {
        if (count > mask)
            grow();
        head = (head - 1) & mask;
        slots[head] = uop;
        count++;
    }

    void
    popFront()
    {
        head = (head + 1) & mask;
        count--;
    }

    /** Drop the youngest entry (squashing a speculative tail). */
    void popBack() { count--; }

    /** Copy of the oldest entry (no reference to invalidate). */
    PipeUop front() const { return at(0); }

    /** Copy of the i-th oldest entry. */
    PipeUop at(u64 i) const { return slots[(head + i) & mask]; }

    /**
     * The oldest entry in place, valid only until the next push or
     * pop: for stall checks and for copying it straight into its
     * next home before popFront().
     */
    const PipeUop &peekFront() const { return slots[head]; }
    u8 flagsAt(u64 i) const { return slots[(head + i) & mask].flags; }

  private:
    void
    grow()
    {
        std::vector<PipeUop> wider(2 * (mask + 1));
        for (u64 i = 0; i < count; i++)
            wider[i] = slots[(head + i) & mask];
        slots = std::move(wider);
        head = 0;
        mask = slots.size() - 1;
    }

    std::vector<PipeUop> slots;
    u64 head = 0;
    u64 count = 0;
    u64 mask = 0;
};

} // namespace icicle

#endif // ICICLE_CORE_PIPEBUF_HH
