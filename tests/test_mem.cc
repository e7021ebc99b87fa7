/**
 * @file
 * Memory-hierarchy tests: set-associative cache behaviour (hits,
 * LRU, write-back), hierarchy latencies, MSHR semantics, and the
 * next-line instruction prefetcher.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/mshr.hh"

namespace icicle
{
namespace
{

CacheConfig
tinyCache()
{
    // 4 sets x 2 ways x 64 B = 512 B.
    CacheConfig cfg;
    cfg.sizeBytes = 512;
    cfg.ways = 2;
    cfg.blockBytes = 64;
    cfg.hitLatency = 1;
    return cfg;
}

TEST(Cache, MissThenHit)
{
    Cache cache(tinyCache());
    EXPECT_FALSE(cache.access(0x1000).hit);
    EXPECT_TRUE(cache.access(0x1000).hit);
    EXPECT_TRUE(cache.access(0x1038).hit); // same block
    EXPECT_FALSE(cache.access(0x1040).hit); // next block
}

TEST(Cache, LruEviction)
{
    Cache cache(tinyCache());
    // Three blocks mapping to the same set (set stride = 4 blocks).
    const Addr a = 0x0000, b = 0x0100, c = 0x0200;
    cache.access(a);
    cache.access(b);
    cache.access(a);      // a is now MRU
    cache.access(c);      // evicts b (LRU)
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

TEST(Cache, DirtyEvictionSignalsWriteback)
{
    Cache cache(tinyCache());
    cache.access(0x0000, true); // dirty
    cache.access(0x0100);
    const CacheAccess third = cache.access(0x0200); // evicts dirty
    EXPECT_TRUE(third.writeback);
}

TEST(Cache, InsertDoesNotCountAsAccess)
{
    Cache cache(tinyCache());
    cache.insert(0x3000);
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_TRUE(cache.probe(0x3000));
    EXPECT_TRUE(cache.access(0x3000).hit);
}

TEST(Cache, FlushAllInvalidates)
{
    Cache cache(tinyCache());
    cache.access(0x0000);
    cache.flushAll();
    EXPECT_FALSE(cache.probe(0x0000));
}

TEST(Cache, RejectsNonPowerOfTwoSets)
{
    CacheConfig bad;
    bad.sizeBytes = 3 * 64;
    bad.ways = 1;
    bad.blockBytes = 64;
    EXPECT_THROW(Cache cache(bad), FatalError);
    // Lookups shift by the block size too, so a block size that is
    // not a power of two is rejected as well (here with four sets). A
    // zero block size is rejected before numSets() divides by it.
    bad.sizeBytes = 4 * 48;
    bad.blockBytes = 48;
    EXPECT_THROW(Cache cache(bad), FatalError);
    bad.blockBytes = 0;
    EXPECT_THROW(Cache cache(bad), FatalError);
}

TEST(Hierarchy, LatenciesStack)
{
    MemConfig cfg;
    MemHierarchy mem(cfg);
    // Cold: L1 miss + L2 miss -> DRAM latency.
    const MemResult cold = mem.data(0x4000, false);
    EXPECT_FALSE(cold.l1Hit);
    EXPECT_FALSE(cold.l2Hit);
    EXPECT_EQ(cold.latency,
              cfg.l1d.hitLatency + cfg.l2.hitLatency + cfg.dramLatency);
    // Warm: L1 hit.
    const MemResult warm = mem.data(0x4000, false);
    EXPECT_TRUE(warm.l1Hit);
    EXPECT_EQ(warm.latency, cfg.l1d.hitLatency);
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    MemConfig cfg;
    MemHierarchy mem(cfg);
    mem.data(0x8000, false);
    // Walk far past L1 capacity (32 KiB) but within L2 (512 KiB).
    for (Addr a = 0; a < 128 * 1024; a += 64)
        mem.data(0x100000 + a, false);
    const MemResult result = mem.data(0x8000, false);
    EXPECT_FALSE(result.l1Hit);
    EXPECT_TRUE(result.l2Hit);
    EXPECT_EQ(result.latency, cfg.l1d.hitLatency + cfg.l2.hitLatency);
}

TEST(Hierarchy, NextLinePrefetchFillsFollowingBlock)
{
    MemConfig cfg;
    cfg.icachePrefetch = true;
    MemHierarchy mem(cfg);
    mem.fetch(0x10000);
    EXPECT_TRUE(mem.l1i().probe(0x10040)); // prefetched
    const MemResult next = mem.fetch(0x10040);
    EXPECT_TRUE(next.l1Hit);
}

TEST(Hierarchy, NoPrefetchWithoutFlag)
{
    MemConfig cfg;
    cfg.icachePrefetch = false;
    MemHierarchy mem(cfg);
    mem.fetch(0x10000);
    EXPECT_FALSE(mem.l1i().probe(0x10040));
}

TEST(Mshr, AllocateDrainPending)
{
    MshrFile mshrs(2);
    EXPECT_FALSE(mshrs.anyBusy());
    EXPECT_TRUE(mshrs.allocate(10, 100));
    EXPECT_TRUE(mshrs.pending(10));
    EXPECT_EQ(mshrs.readyCycle(10), 100u);
    EXPECT_TRUE(mshrs.allocate(11, 120));
    EXPECT_TRUE(mshrs.full());
    // Secondary miss to a tracked block merges.
    EXPECT_TRUE(mshrs.allocate(10, 999));
    EXPECT_EQ(mshrs.readyCycle(10), 100u);
    // A third distinct block is refused.
    EXPECT_FALSE(mshrs.allocate(12, 130));
    mshrs.drain(100);
    EXPECT_FALSE(mshrs.pending(10));
    EXPECT_TRUE(mshrs.pending(11));
    EXPECT_EQ(mshrs.busyCount(), 1u);
    mshrs.reset();
    EXPECT_FALSE(mshrs.anyBusy());
}

} // namespace
} // namespace icicle
