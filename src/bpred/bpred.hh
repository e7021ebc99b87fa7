/**
 * @file
 * Branch direction predictors and branch target buffer.
 *
 * Rocket uses a 512-entry BHT with a 28-entry BTB; BOOM uses a
 * TAGE-style predictor plus BTB (Table IV of the paper).
 */

#ifndef ICICLE_BPRED_BPRED_HH
#define ICICLE_BPRED_BPRED_HH

#include <memory>
#include <optional>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace icicle
{

/** Direction predictor interface. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;
    /** Predict the direction of the branch at pc. */
    virtual bool predictTaken(Addr pc) = 0;
    /** Train with the resolved outcome. */
    virtual void update(Addr pc, bool taken) = 0;

    u64 lookups() const { return numLookups; }
    u64 mispredicts() const { return numMispredicts; }

    /** Record prediction bookkeeping (called by the cores). */
    void
    recordOutcome(bool predicted, bool actual)
    {
        numLookups++;
        if (predicted != actual)
            numMispredicts++;
    }

  protected:
    u64 numLookups = 0;
    u64 numMispredicts = 0;
};

/** 2-bit saturating-counter branch history table (Rocket's BHT). */
class Bht : public BranchPredictor
{
  public:
    explicit Bht(u32 entries = 512);
    bool predictTaken(Addr pc) override;
    void update(Addr pc, bool taken) override;

  private:
    u32 index(Addr pc) const;
    std::vector<u8> counters;
};

/**
 * TAGE direction predictor (BOOM-style): bimodal base table plus
 * tagged components with geometrically increasing history lengths.
 */
class Tage : public BranchPredictor
{
  public:
    /** Default geometry loosely mirrors BOOM's (14,14,28,28,28 KiB). */
    Tage();
    bool predictTaken(Addr pc) override;
    void update(Addr pc, bool taken) override;

    /**
     * Do the incrementally folded registers match a from-scratch
     * foldHistory() of the current global history? Test hook for the
     * O(1) hash path.
     */
    bool foldsConsistent() const;

  private:
    struct TaggedEntry
    {
        u16 tag = 0;
        i8 counter = 0; ///< signed 3-bit: >=0 means taken
        u8 useful = 0;
    };

    struct Table
    {
        u32 historyLength;
        u32 indexBits;
        std::vector<TaggedEntry> entries;
        /**
         * Incrementally folded history (the hardware CSR scheme):
         * pushHistory() keeps these equal to
         * foldHistory(indexBits/9, historyLength), so index and tag
         * hashes are O(1) instead of refolding up to 64 history bits
         * per lookup.
         */
        u32 foldedIndex = 0;
        u32 foldedTag = 0;
    };

    u32 foldHistory(u32 bits, u32 length) const;
    /** Shift one outcome into the history and all folded registers. */
    void pushHistory(bool taken);
    u32 tableIndex(const Table &table, Addr pc) const;
    u16 tableTag(const Table &table, Addr pc) const;
    /** Provider lookup shared by predict and update. */
    int findProvider(Addr pc, u32 *index_out, u16 *tag_out) const;

    std::vector<u8> bimodal;
    std::vector<Table> tables;
    /**
     * predict-to-update provider memo: the pipelines call
     * predictTaken(pc) and update(pc, taken) back to back with no
     * intervening table or history change, so the provider search is
     * reusable. Invalidated by update() (it mutates both).
     */
    Addr memoPc = ~0ull;
    int memoProvider = -1;
    u32 memoIndex = 0;
    u64 globalHistory = 0;
    u64 updateCount = 0;
    Rng allocRng;
};

/** Branch target buffer (fully associative, LRU). */
class Btb
{
  public:
    explicit Btb(u32 entries = 28);

    /** Predicted target for the control-flow instruction at pc. */
    std::optional<Addr> lookup(Addr pc);
    /** Install or refresh a target. */
    void update(Addr pc, Addr target);

    u64 lookups() const { return numLookups; }
    u64 hits() const { return numHits; }

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;
        u64 lruStamp = 0;
    };

    std::vector<Entry> entries;
    u64 stamp = 0;
    u64 numLookups = 0;
    u64 numHits = 0;
};

/** Return-address stack (used by BOOM's frontend for returns). */
class Ras
{
  public:
    explicit Ras(u32 depth = 8) : stack(depth) {}

    void
    push(Addr addr)
    {
        top = top + 1 == stack.size() ? 0 : top + 1;
        stack[top] = addr;
        if (count < stack.size())
            count++;
    }

    std::optional<Addr>
    pop()
    {
        if (count == 0)
            return std::nullopt;
        const Addr addr = stack[top];
        top = (top == 0 ? stack.size() : top) - 1;
        count--;
        return addr;
    }

  private:
    std::vector<Addr> stack;
    u64 top = 0;
    u64 count = 0;
};

} // namespace icicle

#endif // ICICLE_BPRED_BPRED_HH
