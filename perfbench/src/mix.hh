/**
 * @file
 * The seeded request mix of the serve-mix workload.
 *
 * Each load thread draws its own request sequence from the workload
 * seed and its client index, so the same seed replays the same
 * requests. About 80% are hot sweeps (a warmed pair, all cache
 * hits), 10% cold sweeps (a warmed pair under a seed no request used
 * before, so every point simulates) and 10% windowed TMA queries
 * (an index into a pool of windows drawn from the same seed).
 */

#ifndef PERFBENCH_MIX_HH
#define PERFBENCH_MIX_HH

#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace perfbench
{

using icicle::u32;
using icicle::u64;

/** Load threads (closed loop: each waits for its reply). */
constexpr u32 kMixClients = 3;
/** Draw shares, per mille; the rest are window queries. */
constexpr u32 kHotPerMille = 800;
constexpr u32 kColdPerMille = 100;
/** The seed every hot request (and the warm-up) uses. */
constexpr u64 kHotSeed = 0;

enum class RequestKind : icicle::u8 { Hot, Cold, Window };

const char *requestKindName(RequestKind kind);

struct MixRequest
{
    RequestKind kind = RequestKind::Hot;
    /** Hot/cold: index of the (core, workload) pair. */
    u32 pair = 0;
    /** Hot: kHotSeed; cold: a seed unique to this request. */
    u64 seed = kHotSeed;
    /** Window: index into the window pool. */
    u32 window = 0;
};

/** SplitMix64 finalizer: decorrelates nearby seeds. */
u64 splitmix64(u64 x);

class RequestMix
{
  public:
    /** `client` < kMixClients; pairs and windows must be nonzero. */
    RequestMix(u64 seed, u32 client, u32 pairs, u32 windows);

    MixRequest next();

  private:
    icicle::Rng rng;
    /** Odd, so every cold seed (base + even offset) differs from
     * kHotSeed; the offsets are distinct per (client, draw). */
    u64 coldBase;
    u32 client;
    u32 pairs;
    u32 windows;
    u64 colds = 0;
};

/**
 * Draw `count` cycle windows [begin, end) over a store of
 * `numCycles` cycles: each 1 to 3 blocks of `blockCycles` wide, at a
 * uniformly random start. `stream` separates the draws per store.
 */
std::vector<std::pair<u64, u64>> drawWindows(u64 seed, u32 stream,
                                             u64 numCycles,
                                             u32 blockCycles,
                                             u32 count);

} // namespace perfbench

#endif // PERFBENCH_MIX_HH
