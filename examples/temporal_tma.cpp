/**
 * @file
 * Trace-based (temporal) TMA: record a per-cycle microarchitectural
 * event trace, write it to disk, read it back, and analyze it — the
 * out-of-band path of Fig. 4 (TraceRV extension + trace analyzer).
 *
 *   $ ./temporal_tma [workload] [store.icst]
 */

#include <cstdio>

#include "common/logging.hh"
#include "core/session.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace icicle;

int
main(int argc, char **argv)
{
    const char *workload = argc > 1 ? argv[1] : "mergesort";
    const char *path = argc > 2 ? argv[2] : "/tmp/icicle_example.icst";

    try {
        BoomCore core(BoomConfig::large(), buildWorkload(workload));

        // Choose the signals to stream (the trace bundle); record
        // one bit per signal per cycle while the core runs.
        const TraceSpec spec = TraceSpec::tmaBundle(core);
        std::printf("tracing %u signals on %s...\n", spec.numFields(),
                    workload);
        Trace trace = traceRun(core, spec, 10'000'000);
        std::printf("captured %llu cycles\n",
                    static_cast<unsigned long long>(trace.numCycles()));

        // Round-trip through the compressed .icst trace store.
        trace.toStore(path);
        const Trace loaded = Trace::fromStore(path);
        std::printf("trace store: %s (%llu cycles loaded back)\n\n",
                    path,
                    static_cast<unsigned long long>(
                        loaded.numCycles()));

        TraceAnalyzer analyzer(loaded);

        // Temporal TMA over execution phases: quarters of the run.
        const u64 quarter = loaded.numCycles() / 4;
        for (int q = 0; q < 4; q++) {
            const TmaResult window = analyzer.windowTma(
                q * quarter, (q + 1) * quarter, core.coreWidth());
            std::printf("phase %d: %s\n", q,
                        formatTmaLine(window).c_str());
        }

        // Recovery-sequence CDF (Fig. 8b).
        const RecoveryCdf cdf = analyzer.recoveryCdf();
        std::printf("\nrecovery sequences: %llu  mode=%llu  p99=%llu "
                    " max=%llu\n",
                    static_cast<unsigned long long>(cdf.sequences()),
                    static_cast<unsigned long long>(cdf.mode()),
                    static_cast<unsigned long long>(
                        cdf.percentile(0.99)),
                    static_cast<unsigned long long>(cdf.max()));

        // Class-overlap upper bound (Table VI).
        const OverlapBound bound =
            analyzer.overlapUpperBound(core.coreWidth(), 50);
        std::printf("overlap upper bound: %.4f%% of slots "
                    "(frontend perturbation +-%.2f%% relative)\n",
                    bound.overlapFraction * 100,
                    bound.frontendPerturbation * 100);

        // A little window plot around the first recovery.
        const auto runs = analyzer.runsOf(EventId::Recovering);
        if (!runs.empty()) {
            const u64 at =
                runs[0].start > 8 ? runs[0].start - 8 : 0;
            std::printf("\nfirst recovery window:\n%s",
                        analyzer.plot(at, at + 60).c_str());
        }
    } catch (const FatalError &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
