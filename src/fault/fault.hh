/**
 * @file
 * Deterministic fault injection (the icicle-harden layer).
 *
 * Long-horizon measurement is only trustworthy if the failure paths
 * are exercised on purpose: a FaultPlan injects short writes, torn
 * final blocks, single-bit payload flips, ENOSPC, process kills, and
 * spurious sweep-job failures/hangs at *reproducible* points. Every
 * write-side module (store writer, sweep journal, report output) and
 * the sweep thread pool consults the global plan, so any tool can run
 * under faults via the `ICICLE_FAULT` environment variable (or a
 * `--fault` CLI flag where one is exposed).
 *
 * Spec grammar (comma-separated clauses):
 *
 *   seed=N                 RNG seed for bit-flip positions
 *   short-write@SITE#K     K-th write op to SITE writes half, then
 *                          fails with an I/O error
 *   enospc@SITE#K          K-th write op to SITE fails (no space)
 *   kill@SITE#K            K-th write op to SITE writes half, then
 *                          _Exit(137) — a crash mid-write
 *   torn-final@store       the store's final block is truncated to
 *                          half and the file sealed without its
 *                          index/trailer (a torn tail on media)
 *   bitflip@store#B        one seeded bit of block record B is
 *                          flipped before it is written
 *   fail@job#J[=TIMES]     sweep job with grid index J throws on its
 *                          first TIMES attempts (default 1)
 *   hang@job#J             sweep job with grid index J hangs until
 *                          its deadline (bounded when no timeout)
 *   conn-reset@accept#K    K-th accepted connection is reset (closed
 *                          with no reply) as soon as it is admitted
 *   conn-reset@reply#K     K-th server reply is dropped and the
 *                          connection reset instead of answered
 *   stall@read#K=MS        K-th server-side frame read stalls MS
 *                          milliseconds before the bytes are read
 *   stall@write#K=MS       K-th server reply stalls MS milliseconds
 *                          before it is written
 *   torn-frame@reply#K     K-th server reply writes only a prefix of
 *                          the frame, then the connection is reset
 *   kill@worker#K          K-th job dispatched to the worker pool
 *                          SIGKILLs the worker before it can answer
 *
 * Sites: store (.icst writes), journal (sweep journal appends),
 * report (sweep/salvage report output), accept / reply / read /
 * write (icicled connection handling), worker (job dispatch to the
 * serve pool). Write-op ordinals are global per site; they are
 * reproducible whenever the writer order is (single-worker sweeps,
 * single captures, single-client serving).
 * conn-reset@reply and torn-frame@reply share the reply ordinal
 * counter, so one schedule interleaves them deterministically. Job
 * clauses key on the grid index and are reproducible at any worker
 * count; a job that shares a run with its pair's other counter
 * architectures (src/sweep/sweep.hh) decides the attempt for the
 * whole run. Each clause fires a bounded number of times, so a plan
 * describes a finite, replayable failure schedule.
 */

#ifndef ICICLE_FAULT_FAULT_HH
#define ICICLE_FAULT_FAULT_HH

#include <atomic>
#include <array>
#include <string>
#include <vector>

#include "common/sync.hh"
#include "common/types.hh"

namespace icicle
{

/** Write-path and serve-path hook sites a fault clause can target. */
enum class FaultSite : u8
{
    StoreWrite,
    JournalWrite,
    ReportWrite,
    ConnAccept,     ///< icicled accept loop, per admitted connection
    ConnReply,      ///< icicled reply writes (reset + torn share it)
    ConnRead,       ///< icicled per-connection frame reads
    ConnWrite,      ///< icicled reply writes targeted by stall
    WorkerDispatch, ///< serve-pool job dispatch (parent side)
};

constexpr u32 kNumFaultSites = 8;

const char *faultSiteName(FaultSite site);

/** One parsed clause of a fault spec. */
struct FaultClause
{
    enum class Kind : u8
    {
        ShortWrite,
        Enospc,
        Kill,
        TornFinal,
        BitFlip,
        JobFail,
        JobHang,
        ConnReset,
        Stall,
        TornFrame,
        WorkerKill,
    };

    Kind kind;
    FaultSite site = FaultSite::StoreWrite;
    /** Write-op ordinal, block ordinal, or sweep job index. */
    u64 at = 0;
    /** Times the clause fires before going quiet. */
    u64 times = 1;
    /** Times fired so far (guarded by the plan mutex). */
    u64 fired = 0;
    /** Stall clauses only: milliseconds to sleep. */
    u64 stallMs = 0;
};

/**
 * A seeded, replayable failure schedule. Thread-safe: sweep workers
 * and store writers consult the plan concurrently. The inactive plan
 * (no clauses) short-circuits on an atomic flag, so the hooks cost
 * one relaxed load on the non-faulty path.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Replace this plan with the parsed spec ("" deactivates).
     * fatal() on a malformed spec.
     */
    void reset(const std::string &spec);

    bool
    active() const
    {
        return enabled.load(std::memory_order_relaxed);
    }

    /** Human-readable summary of the armed clauses. */
    std::string describe() const;

    // ---- write-path hooks ----------------------------------------

    /** What a write op at this site should do. */
    enum class WriteAction : u8
    {
        None,  ///< write normally
        Short, ///< write half the bytes, then raise an I/O error
        Enospc,///< write nothing, raise ENOSPC
        Kill,  ///< write half the bytes, then _Exit(137)
    };

    /** Consume one write op at `site` and return its fate. */
    WriteAction onWrite(FaultSite site);

    /**
     * Store-writer finish hook: true if the plan wants the final
     * block torn (file truncated mid-block, no index written).
     */
    bool tornFinalStore();

    /**
     * Store-writer block hook: flips one seeded bit of the record if
     * a bitflip clause targets this block ordinal.
     */
    void corruptStoreBlock(u64 block_ordinal, std::string &record);

    // ---- sweep-pool hooks ----------------------------------------

    struct JobDecision
    {
        bool fail = false; ///< throw an injected failure
        bool hang = false; ///< stall until the job deadline
    };

    /** Consume one attempt of sweep job `index`. */
    JobDecision onJob(u64 index);

    // ---- serve-path hooks ----------------------------------------

    /** What a server reply write should do. */
    enum class ReplyAction : u8
    {
        None,  ///< reply normally
        Reset, ///< drop the reply, close the connection
        Torn,  ///< write a prefix of the frame, then close
    };

    /**
     * Consume one accepted connection; true when the plan wants it
     * reset (closed with no reply) on admission.
     */
    bool onAccept();

    /**
     * Consume one server reply (conn-reset@reply and
     * torn-frame@reply share the ConnReply ordinal counter).
     */
    ReplyAction onReply();

    /**
     * Consume one server-side frame read; returns milliseconds to
     * stall before reading (0 = no stall).
     */
    u64 onConnRead();

    /** Consume one server reply write; ms to stall first. */
    u64 onConnWrite();

    /**
     * Consume one parent-side job dispatch; true when the plan wants
     * the worker SIGKILLed before it can answer.
     */
    bool onWorkerDispatch();

  private:
    /**
     * Innermost lock in the global order (lockrank::kFaultPlan): the
     * hooks fire under the journal callback lock and the store
     * writer paths, never the other way around.
     */
    mutable Mutex mutex{"fault.plan", lockrank::kFaultPlan};
    std::atomic<bool> enabled{false};
    std::vector<FaultClause> clauses ICICLE_GUARDED_BY(mutex);
    u64 seed ICICLE_GUARDED_BY(mutex) = 0x1c1c1e;
    std::array<u64, kNumFaultSites> writeOps
        ICICLE_GUARDED_BY(mutex){};
};

/**
 * The process-wide plan. First use parses `ICICLE_FAULT` from the
 * environment (fatal() if malformed); tools and tests may re-arm it
 * with setFaultSpec().
 */
FaultPlan &faultPlan();

/** Re-arm the global plan from a spec string ("" disarms). */
void setFaultSpec(const std::string &spec);

} // namespace icicle

#endif // ICICLE_FAULT_FAULT_HH
