/**
 * @file
 * Parallel sweep engine for TMA experiment grids.
 *
 * Every paper artifact (E1-E20) is a grid of *independent*
 * simulations — (core config x workload x counter architecture) — so
 * the experiment layer, not the core models, gates campaign
 * throughput. This module turns a declarative grid spec into jobs,
 * runs them on N worker threads, and aggregates results
 * deterministically.
 *
 * Runs: the counter architectures count the same per-cycle event
 * signals, so grid points that differ only in counterArch have the
 * same simulated statistics. Adjacent jobs with the same non-zero
 * SweepJob::run key form one *run*, simulated once; its result is
 * fanned out to every member. Custom-factory jobs keep key 0 and are
 * simulated on their own.
 *
 * Threading model: each run owns its core, program, and (optional)
 * trace sink — no mutable state is shared between runs. Workers pull run
 * indices from a single atomic cursor and write each member's
 * SweepResult into a pre-sized slot vector at the job's grid index,
 * so the aggregated output is in grid order and byte-identical
 * regardless of worker count or completion order (the simulators
 * themselves are deterministic).
 *
 * Run lifecycle: claim -> build (the first pending member's
 * SweepJob::make) -> run in chunkCycles slices, checking the
 * wall-clock deadline between slices (cooperative per-job timeout; a
 * pathological config cannot hang the campaign; a traced run analyzes
 * and streams its store as it simulates) -> seal the store -> fan
 * out. A run that throws FatalError is retried up to
 * SweepOptions::maxAttempts times before its members are recorded as
 * Failed; the campaign always runs to completion and failures are
 * visible in the result rows rather than aborting the sweep. If the
 * program read a configured HPM counter in-band, the architecture
 * could have steered it, so the other members run on their own.
 */

#ifndef ICICLE_SWEEP_SWEEP_HH
#define ICICLE_SWEEP_SWEEP_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/core.hh"
#include "pmu/counters.hh"
#include "tma/tma.hh"

namespace icicle
{

/** Terminal state of one sweep job. */
enum class SweepStatus : u8 { Ok, Failed, Timeout };

const char *sweepStatusName(SweepStatus status);

/** One grid point, described declaratively. */
struct SweepPoint
{
    /** Named core configuration ("rocket", "boom-large", ...). */
    std::string core;
    /** Registered workload name. */
    std::string workload;
    CounterArch counterArch = CounterArch::AddWires;
    /** Cycle budget for the run. */
    u64 maxCycles = 80'000'000;
    /** Also capture the TMA trace bundle and analyze it. */
    bool withTrace = false;
};

/**
 * A declarative sweep grid: the cross product
 * cores x workloads x counterArchs, expanded row-major (cores
 * outermost, counter architectures innermost). A value repeated on
 * an axis counts once, where it first appears.
 */
struct GridSpec
{
    std::vector<std::string> cores;
    std::vector<std::string> workloads;
    std::vector<CounterArch> counterArchs{CounterArch::AddWires};
    u64 maxCycles = 80'000'000;
    bool withTrace = false;

    /** Grid points in deterministic row-major order. */
    std::vector<SweepPoint> expand() const;
};

/**
 * One runnable job. The grid layer produces these from SweepPoints;
 * benches with bespoke configs (cache-size sensitivity, ablations)
 * build them directly with a custom factory.
 */
struct SweepJob
{
    /** Row label in reports. */
    std::string label;
    /**
     * Build the core (and its program). Called on the worker thread,
     * once per attempt of the job's run, and only for the run's first
     * pending member; everything it allocates is owned by the run.
     */
    std::function<std::unique_ptr<Core>()> make;
    u64 maxCycles = 80'000'000;
    bool withTrace = false;
    /** Descriptive origin (empty strings for custom jobs). */
    SweepPoint point;
    /**
     * Run key. Adjacent jobs with the same non-zero key (and the same
     * maxCycles and withTrace) must build the same core and program
     * except for the counter architecture; the engine simulates them
     * once. Grid jobs get their (core, workload) pair's ordinal + 1.
     * 0, the default for custom factories, never shares.
     */
    u64 run = 0;
};

/** Aggregated measurements for one grid point. */
struct SweepResult
{
    /** Grid index (results are stored in this order). */
    u64 index = 0;
    std::string label;
    SweepPoint point;
    SweepStatus status = SweepStatus::Failed;
    /** Attempts consumed (> 1 means retries happened). */
    u32 attempts = 0;
    /** Cycles simulated. */
    u64 cycles = 0;
    /** Program halted within the cycle budget. */
    bool finished = false;
    /** Workload self-check exit code (0 = passed). */
    u64 exitCode = 0;
    double ipc = 0;
    TmaResult tma;
    TmaCounters counters;
    /** Trace-derived (only when withTrace): recovery sequences. */
    u64 recoverySequences = 0;
    /** Trace-derived: Table VI overlap fraction. */
    double overlapFraction = 0;
    /** Wall-clock job time (excluded from deterministic output). */
    double wallMs = 0;
    /** Failure message for Failed / Timeout rows. */
    std::string error;
    /**
     * Basename of the .icst written under --trace-out ("" if none).
     * A pure function of the label, so reports stay byte-identical
     * across output directories and worker counts.
     */
    std::string traceStore;
    /**
     * Why a traced job wrote no store under --trace-out ("" when it
     * did) — e.g. a timed-out job, whose partial trace would be
     * wall-clock dependent. Makes the skip visible in every report
     * instead of silent.
     */
    std::string traceSkipped;
};

/** Engine knobs. */
struct SweepOptions
{
    /** Worker threads (clamped to >= 1). */
    u32 workers = 1;
    /** Attempts per job before recording Failed. */
    u32 maxAttempts = 2;
    /** Per-job wall-clock timeout; 0 disables. */
    double timeoutSec = 0;
    /** Cycles simulated between deadline checks. */
    u64 chunkCycles = 1u << 16;
    /**
     * When non-empty, every traced job (withTrace) writes its
     * captured bundle as a compressed .icst store into this
     * directory, named after the job label ('/' becomes '_'). The
     * store writer is deterministic, so the files are byte-identical
     * across worker counts, like the CSV output. A run streams into
     * its first member's store and the other members get byte
     * copies. Timed-out and failed attempts abandon their store
     * (no file, no `.tmp`): a partial trace is wall-clock dependent.
     */
    std::string traceOutDir;
    /**
     * When non-empty, append a CRC-guarded journal record per
     * completed point to this file (crash-safe: each record is
     * fsync'd, a torn tail is dropped on resume). See
     * src/sweep/journal.hh.
     */
    std::string journalPath;
    /**
     * Replay journalPath before running: points whose last record is
     * Ok are restored bit-exactly from the journal and only
     * missing/failed/timed-out points re-run. The final report is
     * byte-identical to an uninterrupted run.
     */
    bool resume = false;
    /**
     * Completion callback (progress reporting). Serialized under the
     * engine mutex; called in completion order, not grid order (a
     * run's members in index order). Resumed points are reported up
     * front, before workers start.
     */
    std::function<void(const SweepResult &)> onResult;
};

/** Store file path for a job label under a --trace-out directory. */
std::string sweepTracePath(const std::string &dir,
                           const std::string &label);

/**
 * Canonical row label of a grid point ("core/workload/arch"). The
 * grid expander and the icicled serving layer both derive labels
 * through this, so cached rows format identically to direct runs.
 */
std::string sweepPointLabel(const SweepPoint &point);

/**
 * Run explicit jobs. Results come back in job order. An exception
 * from a journal append or onResult stops the workers claiming runs;
 * the first one is rethrown here once they have joined.
 */
std::vector<SweepResult> runSweepJobs(const std::vector<SweepJob> &jobs,
                                      const SweepOptions &options = {});

/** Expand a grid and run it. Results come back in grid order. */
std::vector<SweepResult> runSweep(const GridSpec &grid,
                                  const SweepOptions &options = {});

// ---- named-config / axis-value helpers ------------------------------

/** Known core-config names ("rocket", "boom-small", ...). */
std::vector<std::string> sweepCoreNames();

/**
 * Check every core and workload `grid` names against sweepCoreNames()
 * and the workload registry, building nothing: the up-front check
 * icicle-sweep and icicled make before any simulation. fatal() on the
 * first unknown core ("unknown core config 'X'" then `coreHint`),
 * else on the first unknown workload ("unknown workload: X", as
 * buildWorkload says).
 */
void checkGridNames(const GridSpec &grid, const char *coreHint = "");

/**
 * Build a named core with the given counter architecture. fatal() on
 * an unknown name.
 */
std::unique_ptr<Core> makeSweepCore(const std::string &name,
                                    CounterArch arch,
                                    const Program &program);

/** Parse "scalar" / "addwires" / "distributed"; fatal() otherwise. */
CounterArch parseCounterArch(const std::string &name);

// ---- deterministic serialization ------------------------------------

/**
 * Renderers for aggregated results. Wall-times are only emitted with
 * `timing`; without it the output for a given grid is byte-identical
 * across worker counts.
 */
std::string formatSweepTable(const std::vector<SweepResult> &results,
                             bool timing = false);
std::string formatSweepCsv(const std::vector<SweepResult> &results,
                           bool timing = false);
std::string formatSweepJson(const std::vector<SweepResult> &results,
                            bool timing = false);

/** True for the report formats "text", "csv" and "json". */
bool isSweepFormat(const std::string &format);

/**
 * The report in `format`, one of isSweepFormat()'s names — the one
 * switch icicle-sweep and icicled both print through. fatal() on any
 * other name.
 */
std::string formatSweepReport(const std::vector<SweepResult> &results,
                              const std::string &format, bool timing);

} // namespace icicle

#endif // ICICLE_SWEEP_SWEEP_HH
