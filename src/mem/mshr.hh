/**
 * @file
 * Miss Status Holding Registers for BOOM's non-blocking data cache.
 *
 * The D$-blocked TMA event (§IV-A of the paper) keys off "at least
 * one MSHR is currently handling a cache miss", so the MSHR file is a
 * first-class, observable structure here.
 */

#ifndef ICICLE_MEM_MSHR_HH
#define ICICLE_MEM_MSHR_HH

#include <vector>

#include "common/types.hh"

namespace icicle
{

/** A file of miss status holding registers. */
class MshrFile
{
  public:
    explicit MshrFile(u32 count) : entries(count) {}

    /**
     * Try to track a miss for block_addr completing at ready_cycle.
     * Merges with an existing entry for the same block (secondary
     * miss). Returns false if the file is full (structural stall).
     */
    bool
    allocate(u64 block_addr, Cycle ready_cycle, bool from_dram = false)
    {
        Mshr *free_slot = nullptr;
        for (Mshr &mshr : entries) {
            if (mshr.valid && mshr.blockAddr == block_addr) {
                return true; // merged into the primary miss
            }
            if (!mshr.valid && !free_slot) {
                free_slot = &mshr;
            }
        }
        if (!free_slot)
            return false;
        numValid++;
        free_slot->valid = true;
        free_slot->blockAddr = block_addr;
        free_slot->readyCycle = ready_cycle;
        free_slot->fromDram = from_dram;
        return true;
    }

    /**
     * Retire every entry whose refill has arrived by now. Returns
     * whether any did.
     */
    bool
    drain(Cycle now)
    {
        if (numValid == 0)
            return false;
        const u32 before = numValid;
        for (Mshr &mshr : entries) {
            if (mshr.valid && mshr.readyCycle <= now) {
                mshr.valid = false;
                numValid--;
            }
        }
        return numValid != before;
    }

    /** Earliest refill arrival among the entries (~0 when none). */
    Cycle
    nextReady() const
    {
        Cycle earliest = ~0ull;
        if (numValid == 0)
            return earliest;
        for (const Mshr &mshr : entries) {
            if (mshr.valid && mshr.readyCycle < earliest)
                earliest = mshr.readyCycle;
        }
        return earliest;
    }

    /** Is a miss for this block in flight? */
    bool
    pending(u64 block_addr) const
    {
        if (numValid == 0)
            return false;
        for (const Mshr &mshr : entries) {
            if (mshr.valid && mshr.blockAddr == block_addr)
                return true;
        }
        return false;
    }

    /** Completion cycle of the in-flight miss for this block. */
    Cycle
    readyCycle(u64 block_addr) const
    {
        for (const Mshr &mshr : entries) {
            if (mshr.valid && mshr.blockAddr == block_addr)
                return mshr.readyCycle;
        }
        return 0;
    }

    /** No free entry available (structural stall for new misses). */
    bool full() const { return numValid == entries.size(); }

    /** Any miss outstanding? (D$-blocked event condition 3.) */
    bool anyBusy() const { return numValid != 0; }

    /** Any outstanding miss being served by DRAM (third-level TMA)? */
    bool
    anyDramBusy() const
    {
        if (numValid == 0)
            return false;
        for (const Mshr &mshr : entries) {
            if (mshr.valid && mshr.fromDram)
                return true;
        }
        return false;
    }

    u32 busyCount() const { return numValid; }

    u32 capacity() const { return static_cast<u32>(entries.size()); }

    void
    reset()
    {
        for (Mshr &mshr : entries)
            mshr.valid = false;
        numValid = 0;
    }

  private:
    struct Mshr
    {
        bool valid = false;
        u64 blockAddr = 0;
        Cycle readyCycle = 0;
        bool fromDram = false;
    };

    std::vector<Mshr> entries;
    /** Valid-entry count: keeps the per-cycle queries O(1). */
    u32 numValid = 0;
};

} // namespace icicle

#endif // ICICLE_MEM_MSHR_HH
