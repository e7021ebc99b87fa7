#include "core/session.hh"

#include "analysis/lint.hh"

namespace icicle
{

std::unique_ptr<Core>
makeRocket(const RocketConfig &config, const Program &program)
{
    auto core = std::make_unique<RocketCore>(config, program);
    // Fail fast on model-invariant violations before any cycle runs
    // (opt out with setLintOnConstruct(false)).
    enforceLint(lintCore(*core), "makeRocket");
    return core;
}

std::unique_ptr<Core>
makeBoom(const BoomConfig &config, const Program &program)
{
    auto core = std::make_unique<BoomCore>(config, program);
    enforceLint(lintCore(*core), "makeBoom");
    return core;
}

TmaCounters
gatherTmaCounters(const Core &core)
{
    TmaCounters c;
    c.cycles = core.total(EventId::Cycles);
    for (const TmaInput &in : kTmaInputs)
        c.*in.field = core.total(in.event(core.kind()));
    return c;
}

TmaParams
tmaParamsFor(const Core &core)
{
    TmaParams p;
    p.coreWidth = core.coreWidth();
    p.recoverLength = 4;
    return p;
}

TmaResult
analyzeTma(const Core &core)
{
    return computeTma(gatherTmaCounters(core), tmaParamsFor(core));
}

} // namespace icicle
