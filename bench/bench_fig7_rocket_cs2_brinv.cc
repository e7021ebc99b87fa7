/**
 * @file
 * E4 — Fig. 7(d), Rocket CS2: branch inversion.
 *
 * brmiss (alternating outcomes: a 2-bit BHT mispredicts nearly every
 * execution) vs brmiss-inv (statically predictable). Paper: Retiring
 * rises 20% -> 33% while Bad Speculation falls 17% -> 6%.
 */

#include "bench_common.hh"

using namespace icicle;

int
main()
{
    bench::header("Fig. 7(d): Rocket CS2 - branch inversion");
    const TmaResult base = bench::runToEnd<RocketCore>(
        RocketConfig{}, workloads::brmiss(false));
    const TmaResult inv = bench::runToEnd<RocketCore>(
        RocketConfig{}, workloads::brmiss(true));
    bench::tmaRow("brmiss", base);
    bench::tmaRow("brmiss-inv", inv);

    std::printf("\nretiring: %.1f%% -> %.1f%%   (paper: 20%% -> 33%%)\n",
                base.retiring * 100, inv.retiring * 100);
    std::printf("badspec:  %.1f%% -> %.1f%%   (paper: 17%% -> 6%%)\n",
                base.badSpeculation * 100, inv.badSpeculation * 100);
    std::printf("shape checks vs paper:\n");
    std::printf("  retiring rises with inversion ........ %s\n",
                inv.retiring > base.retiring ? "OK" : "MISS");
    std::printf("  bad speculation falls sharply ........ %s "
                "(%.1f%% -> %.1f%%)\n",
                inv.badSpeculation < 0.6 * base.badSpeculation
                    ? "OK"
                    : "MISS",
                base.badSpeculation * 100, inv.badSpeculation * 100);
    return 0;
}
