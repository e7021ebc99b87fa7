/**
 * @file
 * Ablation studies for Icicle's design choices:
 *
 *  A. M_rl (assumed recovery length): Table II fixes it at 4 because
 *     Fig. 8b shows almost every recovery lasts exactly 4 cycles.
 *     Sweep it and compare Bad Speculation against the trace-exact
 *     recovering count.
 *  B. DistributedCounters local width: the paper sizes local counters
 *     as ceil(log2(sources)); narrower counters lose overflows when
 *     the arbiter cannot keep up, wider ones waste bits.
 *  C. Third-level Mem-Bound split (our future-work extension):
 *     DRAM-bound vs L2-bound attribution across workloads whose
 *     working sets target different levels.
 *
 * It ends with one OK/MISS line per claim EXPERIMENTS.md states for
 * E19.
 */

#include "bench_common.hh"
#include "pmu/counters.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"

using namespace icicle;

namespace
{

/** Print one claim check line, dot-padded to a common column. */
void
check(std::string claim, bool held, const std::string &detail)
{
    claim += ' ';
    claim.resize(std::max<size_t>(claim.size(), 52), '.');
    std::printf("  %s %s (%s)\n", claim.c_str(), held ? "OK" : "MISS",
                detail.c_str());
}

std::string
percent(double share)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f%%", share * 100);
    return buf;
}

/** Bad Speculation share at M_rl = 0 and at M_rl = 4. */
struct RecoverLengthResult
{
    double at0 = 0, at4 = 0;
};

RecoverLengthResult
ablationRecoverLength()
{
    bench::header("Ablation A: recovery-length constant M_rl "
                  "(Table II uses 4)");
    BoomCore core(BoomConfig::large(), buildWorkload("qsort"));
    core.run(bench::kMaxCycles);
    const TmaCounters counters = gatherTmaCounters(core);

    std::printf("\n  %-6s %12s\n", "M_rl", "BadSpec");
    double at4 = 0;
    for (u32 m_rl : {0u, 2u, 4u, 6u, 8u}) {
        TmaParams params = tmaParamsFor(core);
        params.recoverLength = m_rl;
        const TmaResult r = computeTma(counters, params);
        std::printf("  %-6u %11.2f%%%s\n", m_rl,
                    r.badSpeculation * 100,
                    m_rl == 4 ? "   <- paper's constant" : "");
        if (m_rl == 4)
            at4 = r.badSpeculation;
    }
    // Trace ground truth: the recovering event already measures the
    // real recovery slots, so M_rl deliberately double-counts (§IV-A
    // admits the overestimate). Quantify it.
    TmaParams exact = tmaParamsFor(core);
    exact.recoverLength = 0;
    const double no_overestimate =
        computeTma(counters, exact).badSpeculation;
    std::printf("\n  overestimate at M_rl=4: +%.2f points over the "
                "counter-exact recovery attribution\n",
                (at4 - no_overestimate) * 100);
    return {no_overestimate, at4};
}

/** What the width sweep lost after post-processing. */
struct WidthResult
{
    u64 exact = 0;
    u64 lostAtWidth1 = 0;
    /** Widths >= localWidthFor(sources) whose corrected value lost. */
    u32 lossyPaperWidths = 0;
};

WidthResult
ablationDistributedWidth()
{
    bench::header("Ablation B: distributed-counter local width "
                  "(paper: ceil(log2(sources)))");
    // Drive the real fetch-bubble source mask from a simulation into
    // Distributed machines of different widths.
    BoomCore core(BoomConfig::large(), buildWorkload("coremark"));
    const u32 sources = core.bus().sourcesOf(EventId::FetchBubbles);
    std::vector<DistributedMachine> counters;
    for (u32 width = 1; width <= 6; width++)
        counters.emplace_back(sources, width);
    core.run(bench::kMaxCycles, [&](Cycle, const EventBus &bus) {
        for (DistributedMachine &counter : counters)
            counter.step(bus.mask(EventId::FetchBubbles));
    });
    const u64 exact = core.total(EventId::FetchBubbles);
    WidthResult result{exact};

    std::printf("\n  sources=%u exact-count=%llu\n", sources,
                static_cast<unsigned long long>(exact));
    std::printf("  %-7s %12s %12s %10s %12s\n", "width",
                "raw(scaled)", "corrected", "lost", "bound");
    for (const DistributedMachine &counter : counters) {
        const u64 scaled = counter.read() << counter.width;
        const u64 corrected = counter.corrected();
        const long long lost = static_cast<long long>(exact) -
                               static_cast<long long>(corrected);
        std::printf("  %-7u %12llu %12llu %10lld %12llu%s\n",
                    counter.width,
                    static_cast<unsigned long long>(scaled),
                    static_cast<unsigned long long>(corrected), lost,
                    static_cast<unsigned long long>(
                        counter.undercountBound()),
                    counter.width == 2
                        ? "   <- paper sizing for 3-4 sources"
                        : "");
        if (counter.width == 1)
            result.lostAtWidth1 = static_cast<u64>(lost);
        if (counter.width >= localWidthFor(sources) && lost != 0)
            result.lossyPaperWidths++;
    }
    std::printf("\n  widths >= ceil(log2(sources)) lose nothing after "
                "post-processing; width 1 can drop\n  overflows when "
                "all lanes fire for %u+ consecutive cycles.\n",
                sources);
    return result;
}

/** DRAM-bound and L2-bound shares of one level-3 row. */
struct MemSplit
{
    double l2 = 0, dram = 0;
};

/** The pointer-chase and deepsjeng-64KiB rows. */
struct Level3Result
{
    MemSplit chase, deepsjeng;
};

Level3Result
ablationLevel3()
{
    bench::header("Ablation C: third-level Mem-Bound split "
                  "(hierarchy extension)");
    std::printf("\n  %-22s %10s %10s %10s\n", "workload", "mem",
                "L2-bound", "DRAM-bound");

    // Three bespoke (config, workload) pairs: run them as one
    // parallel sweep campaign with per-job factories.
    BoomConfig small_l1 = BoomConfig::large();
    small_l1.mem.l1d.sizeBytes = 8 * 1024;
    auto job = [](const char *label, BoomConfig config,
                  std::function<Program()> build) {
        SweepJob j;
        j.label = label;
        j.maxCycles = bench::kMaxCycles;
        j.make = [config, build] {
            return std::make_unique<BoomCore>(config, build());
        };
        return j;
    };
    const std::vector<SweepJob> jobs = {
        job("pointer-chase (2MiB)", BoomConfig::large(),
            [] { return workloads::pointerChase(16384, 5000); }),
        job("deepsjeng 64KiB/8K L1", small_l1,
            [] { return workloads::spec531DeepsjengR(64); }),
        job("x264 (L1-resident)", BoomConfig::large(),
            [] { return workloads::spec525X264R(); }),
    };
    SweepOptions options;
    options.workers = bench::defaultWorkers();
    const std::vector<SweepResult> rows = runSweepJobs(jobs, options);
    for (const SweepResult &row : rows) {
        bench::warnIfUnhealthy(row);
        std::printf("  %-22s %9.1f%% %9.1f%% %9.1f%%\n",
                    row.label.c_str(), row.tma.memBound * 100,
                    row.tma.memBoundL2 * 100,
                    row.tma.memBoundDram * 100);
    }
    std::printf("\n  expectation: out-of-L2 chasing is DRAM-bound, an "
                "L2-resident working set is\n  L2-bound, and an "
                "L1-resident kernel splits whatever little remains.\n");
    return {{rows[0].tma.memBoundL2, rows[0].tma.memBoundDram},
            {rows[1].tma.memBoundL2, rows[1].tma.memBoundDram}};
}

} // namespace

int
main()
{
    const RecoverLengthResult a = ablationRecoverLength();
    const WidthResult b = ablationDistributedWidth();
    const Level3Result c = ablationLevel3();

    std::printf("\nchecks:\n");
    check("(A) qsort BadSpec at M_rl=4 above M_rl=0",
          a.at4 > a.at0, percent(a.at0) + " -> " + percent(a.at4));
    check("(B1) corrected is exact at width >= ceil(log2 n)",
          b.lossyPaperWidths == 0,
          std::to_string(b.lossyPaperWidths) + " width(s) lost events");
    check("(B2) width 1 loses events",
          b.lostAtWidth1 > 0,
          std::to_string(b.lostAtWidth1) + " of " +
              std::to_string(b.exact));
    check("(C1) pointer-chase more DRAM- than L2-bound",
          c.chase.dram > c.chase.l2,
          percent(c.chase.dram) + " vs " + percent(c.chase.l2));
    check("(C2) deepsjeng-64KiB more L2- than DRAM-bound",
          c.deepsjeng.l2 > c.deepsjeng.dram,
          percent(c.deepsjeng.l2) + " vs " + percent(c.deepsjeng.dram));
    return 0;
}
