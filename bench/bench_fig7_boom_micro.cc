/**
 * @file
 * E7 — Fig. 7(k),(l): BOOM (LargeBoomV3) TMA on the microbenchmark
 * suite: top level and backend second level.
 *
 * Paper shape: similar breakdown to Rocket, with Dhrystone and
 * CoreMark reaching IPC around 2 on the 3-wide core and memcpy again
 * standing out as memory bound.
 */

#include "bench_common.hh"

using namespace icicle;

int
main()
{
    bench::header("Fig. 7(k): BOOM top-level TMA, microbenchmarks "
                  "(LargeBoomV3)");
    const std::vector<std::string> suite = {
        "vvadd",     "mm",     "memcpy", "mergesort",
        "qsort",     "rsort",  "towers", "spmv",
        "dhrystone", "coremark",
    };
    std::vector<TmaResult> results;
    for (const std::string &name : suite) {
        const TmaResult r = bench::runToEnd<BoomCore>(BoomConfig::large(),
                                                      buildWorkload(name));
        results.push_back(r);
        bench::tmaRow(name, r);
    }

    bench::header("Fig. 7(l): BOOM backend second level");
    for (u64 i = 0; i < suite.size(); i++)
        bench::tmaSecondLevelRow(suite[i], results[i]);

    auto find = [&](const std::string &name) -> const TmaResult & {
        for (u64 i = 0; i < suite.size(); i++)
            if (suite[i] == name)
                return results[i];
        std::abort();
    };
    const TmaResult &dhry = find("dhrystone");
    const TmaResult &core_mark = find("coremark");
    const TmaResult &memcpy_r = find("memcpy");
    std::printf("\nshape checks vs paper:\n");
    std::printf("  dhrystone/coremark high IPC ......... %s "
                "(%.2f / %.2f, paper ~2)\n",
                dhry.ipc > 1.2 && core_mark.ipc > 1.0 ? "OK" : "MISS",
                dhry.ipc, core_mark.ipc);
    // Compare within the paper's own chart set (spmv is our extra).
    double paper_best_mem = 0;
    for (const char *name : {"vvadd", "mm", "mergesort", "qsort",
                             "rsort", "towers", "dhrystone",
                             "coremark"})
        paper_best_mem = std::max(paper_best_mem, find(name).memBound);
    std::printf("  memcpy stands out as memory bound ... %s "
                "(mem=%.1f%% vs %.1f%%)\n",
                memcpy_r.memBound >= paper_best_mem ? "OK" : "MISS",
                memcpy_r.memBound * 100, paper_best_mem * 100);
    return 0;
}
