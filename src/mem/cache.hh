/**
 * @file
 * Set-associative cache timing model (tags only).
 *
 * Icicle's cores are replay-based: data values come from the
 * functional executor, so caches track only tags, LRU state, and
 * dirty bits — exactly what is needed to decide hit/miss timing and
 * to raise the D$-release (writeback) performance event.
 */

#ifndef ICICLE_MEM_CACHE_HH
#define ICICLE_MEM_CACHE_HH

#include <optional>
#include <vector>

#include "common/types.hh"

namespace icicle
{

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    u64 sizeBytes = 32 * 1024;
    u32 ways = 8;
    u32 blockBytes = 64;
    /** Cycles from request to data on a hit. */
    u32 hitLatency = 1;

    u32 numSets() const
    {
        return static_cast<u32>(sizeBytes / (blockBytes * ways));
    }
};

/** Result of a cache access. */
struct CacheAccess
{
    bool hit = false;
    /** A dirty block was evicted (D$-release event source). */
    bool writeback = false;
};

/**
 * One level of set-associative cache with true-LRU replacement and
 * write-back, write-allocate policy.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Probe without side effects.
     * @return true if the block holding addr is present.
     */
    bool probe(Addr addr) const;

    /**
     * Access a block: on hit, update LRU; on miss, allocate the block
     * (evicting LRU).
     * @param addr byte address accessed
     * @param is_write mark the block dirty
     */
    CacheAccess access(Addr addr, bool is_write = false);

    /**
     * Insert a block without an access (prefetch fill). Returns true
     * if a dirty block was evicted.
     */
    bool insert(Addr addr);

    /** Invalidate everything (fence.i on the I-cache). */
    void flushAll();

    /** Block number of addr (fetch-block and MSHR key). */
    u64 blockAddr(Addr addr) const { return addr >> blockShift; }

    const CacheConfig &config() const { return cfg; }
    u64 accesses() const { return numAccesses; }
    u64 misses() const { return numMisses; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        u64 tag = 0;
        u64 lruStamp = 0;
    };

    u32 setIndex(u64 block) const { return block & (numSets - 1); }
    u64 tagOf(u64 block) const { return block >> setShift; }

    Line *findLine(u64 block);
    const Line *findLine(u64 block) const;
    /** Victim way in the set for this block (invalid first, else LRU). */
    Line &victim(u64 block);

    CacheConfig cfg;
    u32 numSets = 0;
    u32 blockShift = 0;
    u32 setShift = 0;
    std::vector<Line> lines;
    u64 stamp = 0;
    u64 numAccesses = 0;
    u64 numMisses = 0;
};

} // namespace icicle

#endif // ICICLE_MEM_CACHE_HH
