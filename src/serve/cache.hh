/**
 * @file
 * Content-addressed result cache for icicled.
 *
 * Simulations are deterministic, and the counter architectures count
 * the same per-cycle event signals, so one (core config, workload,
 * cycle budget, seed) run always produces the same SweepResult bit
 * for bit, whichever architecture a row names. That makes results
 * content-addressable per *run*: the key is the serialized identity
 * blob itself (cache-format version, core, workload, cycle budget,
 * trace flag and the request seed — no architecture), and its FNV-1a
 * 64-bit hash names the entry file. The hash is only an address:
 * lookup compares the blob stored in the entry byte-for-byte against
 * the requested blob, so a hash collision degrades to a miss and a
 * re-simulation, never to another run's result. Any field that could
 * change the result changes the blob; a format bump invalidates every
 * old entry at once.
 *
 * One entry per run, one file per entry (<hash>.res under the cache
 * directory), holding the journal codec's bit-exact encoding of the
 * run's one SweepResult — every architecture's row — behind a
 * magic/version/blob/CRC envelope. Entries are published with the
 * AtomicFile tmp+fsync+rename discipline through
 * FaultSite::StoreWrite, so `ICICLE_FAULT kill@store#K` exercises a
 * SIGKILL mid-publish: the victim leaves only a `.res.tmp`, which
 * lookup never reads, and a restarted daemon serves exactly the
 * intact entries (DESIGN.md §14 has the full argument).
 *
 * Torn, truncated, or bit-flipped entries — anything failing the
 * envelope or CRC — degrade to a cache miss and are re-simulated,
 * never served.
 */

#ifndef ICICLE_SERVE_CACHE_HH
#define ICICLE_SERVE_CACHE_HH

#include <string>

#include "sweep/sweep.hh"

namespace icicle
{

constexpr u32 kServeCacheMagic = 0x43524349; // "ICRC"
constexpr u32 kServeCacheVersion = 3;

/**
 * The content address of one run's result: the full identity blob
 * plus its FNV-1a 64 hash. The blob is authoritative (compared
 * byte-for-byte on lookup); the hash only names the entry file, so
 * two runs whose blobs collide in the hash contend for one file name
 * but can never serve each other's result.
 */
struct ServeKey
{
    u64 hash = 0;
    std::string blob;
};

/**
 * Derive the key of `point`'s run: every counter architecture of one
 * (core, workload) gets the same key. withTrace is always false
 * through the daemon but still participates, keeping the identity a
 * strict superset of sweepGridHash's per-job fields less the arch.
 */
ServeKey serveCacheKey(const SweepPoint &point, u64 seed);

/** Disk-backed result cache; safe for concurrent lookup/publish. */
class ResultCache
{
  public:
    /** Creates `dir` if needed; fatal() when that fails. */
    explicit ResultCache(const std::string &dir);

    /**
     * Load the entry for `key`. Returns false — a miss — when the
     * entry is absent or fails any validation, including an embedded
     * blob that is not byte-identical to `key.blob` (a hash
     * collision or renamed file); label and point are NOT restored
     * (the caller rederives them, per architecture, from its
     * request).
     */
    bool lookup(const ServeKey &key, SweepResult &result) const;

    /**
     * Atomically publish the entry for `key` (tmp+fsync+rename via
     * FaultSite::StoreWrite). Only Ok results should be published;
     * failures must re-run, not stick.
     */
    void publish(const ServeKey &key, const SweepResult &result) const;

    /** "<dir>/<016x hash>.res". */
    std::string entryPath(u64 hash) const;

    /** Intact-looking entries on disk (*.res; tmp files excluded). */
    u64 entriesOnDisk() const;

    const std::string &dir() const { return cacheDir; }

  private:
    std::string cacheDir;
};

} // namespace icicle

#endif // ICICLE_SERVE_CACHE_HH
