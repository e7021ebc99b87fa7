/**
 * @file
 * E2 — Fig. 7(a),(b): Rocket top-level TMA and backend second level
 * across the microbenchmark suite.
 *
 * Paper shape to reproduce: qsort dominated by Bad Speculation
 * (unpredictable pivot branch), rsort near-ideal IPC, most
 * microbenchmarks with negligible Frontend, memcpy with the largest
 * Backend share of which roughly half is Memory Bound.
 */

#include "bench_common.hh"

using namespace icicle;

int
main()
{
    bench::header("Fig. 7(a): Rocket top-level TMA, microbenchmarks");
    const std::vector<std::string> suite = {
        "vvadd",  "mm",        "memcpy", "mergesort", "qsort",
        "rsort",  "towers",    "spmv",   "pointer-chase",
        "dhrystone", "coremark",
    };
    std::vector<TmaResult> results;
    for (const std::string &name : suite) {
        const TmaResult r = bench::runToEnd<RocketCore>(RocketConfig{},
                                                        buildWorkload(name));
        results.push_back(r);
        bench::tmaRow(name, r);
    }

    bench::header("Fig. 7(b): Rocket backend second level");
    for (u64 i = 0; i < suite.size(); i++)
        bench::tmaSecondLevelRow(suite[i], results[i]);

    // Paper-shape checks.
    auto find = [&](const std::string &name) -> const TmaResult & {
        for (u64 i = 0; i < suite.size(); i++)
            if (suite[i] == name)
                return results[i];
        std::abort();
    };
    const TmaResult &qsort = find("qsort");
    const TmaResult &rsort = find("rsort");
    const TmaResult &memcpy_r = find("memcpy");
    std::printf("\nshape checks vs paper:\n");
    std::printf("  qsort lost slots dominated by BadSpec ........ %s "
                "(badspec=%.1f%% > frontend=%.1f%%)\n",
                qsort.badSpeculation > qsort.frontend &&
                        qsort.badSpeculation > 0.1
                    ? "OK"
                    : "MISS",
                qsort.badSpeculation * 100, qsort.frontend * 100);
    std::printf("  rsort near-ideal IPC ......................... %s "
                "(retiring=%.1f%%)\n",
                rsort.retiring > 0.6 ? "OK" : "MISS",
                rsort.retiring * 100);
    // Compare against the paper's own microbenchmark set (the
    // pointer-chase/spmv gather kernels are our additions).
    double paper_suite_best = 0;
    for (const char *name :
         {"vvadd", "mm", "mergesort", "qsort", "rsort", "towers",
          "dhrystone", "coremark"})
        paper_suite_best =
            std::max(paper_suite_best, find(name).backend);
    std::printf("  memcpy has the largest backend share ......... %s "
                "(backend=%.1f%% vs %.1f%%)\n",
                memcpy_r.backend >= paper_suite_best ? "OK" : "MISS",
                memcpy_r.backend * 100, paper_suite_best * 100);
    std::printf("  ~half of memcpy backend is Memory Bound ...... %s "
                "(mem=%.1f%% of backend=%.1f%%)\n",
                memcpy_r.memBound > 0.25 * memcpy_r.backend ? "OK"
                                                            : "MISS",
                memcpy_r.memBound * 100, memcpy_r.backend * 100);
    return 0;
}
