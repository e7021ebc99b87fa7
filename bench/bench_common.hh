/**
 * @file
 * Shared helpers for the experiment-reproduction benches. Each bench
 * binary regenerates one table or figure of the paper's evaluation
 * and prints measured values next to the paper's reported ones where
 * applicable.
 */

#ifndef ICICLE_BENCH_COMMON_HH
#define ICICLE_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "boom/boom.hh"
#include "core/session.hh"
#include "rocket/rocket.hh"
#include "sweep/sweep.hh"
#include "tma/tma.hh"
#include "workloads/workloads.hh"

namespace icicle
{
namespace bench
{

constexpr u64 kMaxCycles = 80'000'000;

/**
 * Worker-pool width for sweep-driven benches: the machine's
 * concurrency, bounded so small grids don't spawn idle threads.
 */
inline u32
defaultWorkers()
{
    const u32 hw = std::thread::hardware_concurrency();
    return hw ? std::min(hw, 16u) : 4u;
}

/** Mirror runToEnd's health warnings for a sweep row. */
inline void
warnIfUnhealthy(const SweepResult &row)
{
    if (row.status != SweepStatus::Ok)
        std::printf("  (warning: %s %s: %s)\n", row.label.c_str(),
                    sweepStatusName(row.status), row.error.c_str());
    else if (!row.finished)
        std::printf("  (warning: %s hit the cycle cap)\n",
                    row.label.c_str());
    else if (row.exitCode != 0)
        std::printf("  (warning: %s failed self-check: %llu)\n",
                    row.label.c_str(),
                    static_cast<unsigned long long>(row.exitCode));
}

inline void
header(const std::string &title)
{
    std::printf("\n================================================"
                "====================\n%s\n"
                "================================================"
                "====================\n",
                title.c_str());
}

/**
 * Run a program on a `CoreT` (RocketCore or BoomCore) built from
 * `cfg`, up to kMaxCycles, and return the TMA breakdown.
 */
template <typename CoreT, typename Config>
inline TmaResult
runToEnd(const Config &cfg, const Program &program)
{
    CoreT core(cfg, program);
    core.run(kMaxCycles);
    if (!core.done())
        std::printf("  (warning: %s hit the cycle cap)\n",
                    program.name.c_str());
    if (core.executor().halted() && core.executor().exitCode() != 0)
        std::printf("  (warning: %s failed self-check: %llu)\n",
                    program.name.c_str(),
                    static_cast<unsigned long long>(
                        core.executor().exitCode()));
    return analyzeTma(core);
}

/** Print a one-line top-level TMA row. */
inline void
tmaRow(const std::string &name, const TmaResult &r)
{
    std::printf("  %-18s %s\n", name.c_str(),
                formatTmaLine(r).c_str());
}

/** Print a second-level row (frontend / badspec / backend split). */
inline void
tmaSecondLevelRow(const std::string &name, const TmaResult &r)
{
    std::printf("  %-18s brMisp=%5.1f%% machClr=%5.1f%% | "
                "fetchLat=%5.1f%% pcRes=%5.1f%% | core=%5.1f%% "
                "mem=%5.1f%%\n",
                name.c_str(), r.branchMispredicts * 100,
                r.machineClears * 100, r.fetchLatency * 100,
                r.pcResteer * 100, r.coreBound * 100, r.memBound * 100);
}

} // namespace bench
} // namespace icicle

#endif // ICICLE_BENCH_COMMON_HH
