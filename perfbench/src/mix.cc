#include "mix.hh"

#include <algorithm>

#include "common/logging.hh"

namespace perfbench
{

const char *
requestKindName(RequestKind kind)
{
    switch (kind) {
      case RequestKind::Hot: return "hot";
      case RequestKind::Cold: return "cold";
      case RequestKind::Window: return "window";
      default: return "?";
    }
}

u64
splitmix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

RequestMix::RequestMix(u64 seed, u32 client, u32 pairs, u32 windows)
    : rng(splitmix64(seed ^ splitmix64(client + 1))),
      coldBase(splitmix64(seed) | 1), client(client), pairs(pairs),
      windows(windows)
{
    if (client >= kMixClients || pairs == 0 || windows == 0)
        icicle::fatal("request mix: bad client/pairs/windows");
}

MixRequest
RequestMix::next()
{
    MixRequest request;
    const u64 draw = rng.below(1000);
    if (draw < kHotPerMille) {
        request.kind = RequestKind::Hot;
        request.pair = static_cast<u32>(rng.below(pairs));
    } else if (draw < kHotPerMille + kColdPerMille) {
        request.kind = RequestKind::Cold;
        request.pair = static_cast<u32>(rng.below(pairs));
        request.seed = coldBase + 2 * (colds++ * kMixClients + client);
    } else {
        request.kind = RequestKind::Window;
        request.window = static_cast<u32>(rng.below(windows));
    }
    return request;
}

std::vector<std::pair<u64, u64>>
drawWindows(u64 seed, u32 stream, u64 numCycles, u32 blockCycles,
            u32 count)
{
    if (blockCycles == 0 || numCycles < 3ull * blockCycles)
        icicle::fatal("window pool: store of ", numCycles,
                      " cycles is shorter than three blocks");
    icicle::Rng rng(splitmix64(seed ^ splitmix64(0x57ull + stream)));
    std::vector<std::pair<u64, u64>> windows;
    for (u32 i = 0; i < count; i++) {
        const u64 width = (1 + rng.below(3)) * blockCycles;
        const u64 begin = rng.below(numCycles - width + 1);
        windows.emplace_back(begin, begin + width);
    }
    return windows;
}

} // namespace perfbench
