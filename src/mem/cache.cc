#include "mem/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace icicle
{

Cache::Cache(const CacheConfig &config) : cfg(config)
{
    // Powers of two let every lookup find its set and tag by mask and
    // shift instead of dividing.
    if (!std::has_single_bit(cfg.blockBytes))
        fatal("cache block size must be a nonzero power of two");
    numSets = cfg.numSets();
    if (!std::has_single_bit(numSets))
        fatal("cache set count must be a nonzero power of two");
    blockShift = std::countr_zero(cfg.blockBytes);
    setShift = std::countr_zero(numSets);
    lines.resize(static_cast<u64>(numSets) * cfg.ways);
}

Cache::Line *
Cache::findLine(u64 block)
{
    const u64 base = static_cast<u64>(setIndex(block)) * cfg.ways;
    const u64 tag = tagOf(block);
    for (u32 w = 0; w < cfg.ways; w++) {
        Line &line = lines[base + w];
        if (line.valid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(u64 block) const
{
    return const_cast<Cache *>(this)->findLine(block);
}

Cache::Line &
Cache::victim(u64 block)
{
    const u64 base = static_cast<u64>(setIndex(block)) * cfg.ways;
    Line *lru = &lines[base];
    for (u32 w = 0; w < cfg.ways; w++) {
        Line &line = lines[base + w];
        if (!line.valid)
            return line;
        if (line.lruStamp < lru->lruStamp)
            lru = &line;
    }
    return *lru;
}

bool
Cache::probe(Addr addr) const
{
    return findLine(blockAddr(addr)) != nullptr;
}

CacheAccess
Cache::access(Addr addr, bool is_write)
{
    numAccesses++;
    const u64 block = blockAddr(addr);
    CacheAccess result;
    if (Line *line = findLine(block)) {
        result.hit = true;
        line->lruStamp = ++stamp;
        line->dirty |= is_write;
        return result;
    }
    numMisses++;
    Line &line = victim(block);
    result.writeback = line.valid && line.dirty;
    line.valid = true;
    line.dirty = is_write;
    line.tag = tagOf(block);
    line.lruStamp = ++stamp;
    return result;
}

bool
Cache::insert(Addr addr)
{
    const u64 block = blockAddr(addr);
    if (findLine(block))
        return false;
    Line &line = victim(block);
    const bool writeback = line.valid && line.dirty;
    line.valid = true;
    line.dirty = false;
    line.tag = tagOf(block);
    line.lruStamp = ++stamp;
    return writeback;
}

void
Cache::flushAll()
{
    for (Line &line : lines)
        line = Line{};
}

} // namespace icicle
