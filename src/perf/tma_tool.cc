#include "perf/tma_tool.hh"

#include <sstream>

#include "core/session.hh"
#include "perf/harness.hh"

namespace icicle
{

TmaRun
runTmaAnalysis(Core &core, TmaSource source, u64 max_cycles)
{
    TmaRun run;
    if (source == TmaSource::InBand) {
        PerfHarness harness(core);
        harness.addTmaEvents();
        run.cycles = harness.run(max_cycles);
        run.counters = harness.tmaCounters();
        run.unreliable = harness.unreliableEvents();
    } else {
        run.cycles = core.run(max_cycles);
        run.counters = gatherTmaCounters(core);
    }
    run.finished = core.done();
    run.instructions = core.executor().instsRetired();
    run.tma = computeTma(run.counters, tmaParamsFor(core));
    return run;
}

const char *
tmaFieldOfEvent(EventId event)
{
    for (const TmaInput &in : kTmaInputs) {
        if (event == in.boom || event == in.rocket)
            return in.feeds;
    }
    return "";
}

std::string
tmaToolReport(const TmaRun &run, const std::string &title)
{
    std::ostringstream os;
    os << formatTmaReport(run.tma, title);
    if (!run.finished)
        os << "(workload did not run to completion)\n";
    for (const UnreliableEvent &e : run.unreliable) {
        os << "UNRELIABLE: " << eventName(e.event);
        const char *field = tmaFieldOfEvent(e.event);
        if (field[0] != '\0')
            os << " (feeds " << field << ")";
        const char *sep = " — ";
        const auto reason = [&os, &sep](bool flagged, const char *why) {
            if (flagged) {
                os << sep << why;
                sep = "; ";
            }
        };
        reason(e.saturated, "counter saturated");
        reason(e.armedWrite, "written while armed");
        reason(e.notCounted, "not counted: its multiplex group never ran");
        os << "\n";
    }
    return os.str();
}

} // namespace icicle
