/**
 * @file
 * The icicled worker process pool.
 *
 * Simulation jobs run in forked child processes, not daemon threads:
 * a job that corrupts memory, trips an injected fault, or gets
 * SIGKILLed takes down one worker, not the daemon or its cache. A
 * job is one run: one (core, workload) under every counter
 * architecture, which the worker simulates once as one runSweep grid
 * and answers with the one result they share (runReply).
 *
 * Dispatch is work-conserving: a job takes its preferred worker when
 * that one is idle and any idle worker otherwise, and waits in
 * arrival order only when every worker is busy. A worker runs one
 * job at a time, which keeps the pipe protocol trivially correct (no
 * request ids, no reordering), and goes back to the pool as soon as
 * its reply frame is decoded — before the caller publishes anything.
 * Single-flight (concurrent requests for one run simulate it once)
 * is the server's in-flight run table (server.hh), not the pool's.
 *
 * Lifecycle: all workers fork at pool construction, before the
 * daemon starts any thread (fork from a multithreaded process is
 * where deadlocks live — so the order is load-bearing). Between fork
 * and the job loop the child runs only async-signal-safe calls and
 * closes every inherited fd except its own pipe pair (close_range),
 * so a respawned worker never pins the daemon's listen socket or a
 * client connection open. Parent and child speak protocol.hh frames
 * over a pipe pair. A worker that dies (EOF/EPIPE on its pipes) is
 * killed, reaped, and respawned by the dispatching thread; the
 * request that hit the dead worker is retried once on the
 * replacement before reporting failure.
 *
 * Respawning does fork from the then-multithreaded daemon, and the
 * child's job loop is NOT async-signal-safe (runSweep allocates): if
 * another daemon thread held the heap lock at fork time the child
 * can deadlock before replying. That is why every dispatch read
 * carries a deadline (jobTimeoutMs): a worker that produces no frame
 * by the deadline is SIGKILLed and reaped instead of staying checked
 * out forever, and the job is retried once on a fresh worker.
 */

#ifndef ICICLE_SERVE_POOL_HH
#define ICICLE_SERVE_POOL_HH

#include <atomic>
#include <string>
#include <vector>

#include "common/sync.hh"
#include "serve/protocol.hh"

namespace icicle
{

/**
 * A worker's reply to `request` from its run's per-architecture
 * results (each with index 0): ok with their common result when every
 * architecture encodes to the same bytes, else an error naming the
 * run. They differ only when the program read a configured HPM
 * counter in-band, which no registered workload does.
 */
JobReply runReply(const JobRequest &request,
                  const std::vector<SweepResult> &results);

class WorkerPool
{
  public:
    /**
     * Forks `count` workers (clamped to >= 1). `jobTimeoutMs` bounds
     * each dispatch's wait for the worker's reply frame (0 = wait
     * forever); a worker that misses the deadline is SIGKILLed and
     * respawned.
     */
    explicit WorkerPool(u32 count, u32 jobTimeoutMs = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    u32 size() const
    { return static_cast<u32>(workers.size()); }

    /** Workers respawned after dying (not the initial forks). */
    u64 restarts() const
    { return restartCount.load(std::memory_order_relaxed); }

    /** Jobs dispatched (runJob calls; a retried job counts once). */
    u64 jobs() const
    { return jobCount.load(std::memory_order_relaxed); }

    /**
     * Run one job on an idle worker: `preferred` (modulo size())
     * when it is idle, any idle worker otherwise. When every worker
     * is busy the job waits, first come first served, and
     * `*waited` (if given) is set. Returns false and fills `error`
     * only when the worker died or timed out, and its replacement
     * did too; a job that merely fails inside the simulator comes
     * back true with a Failed result status.
     */
    bool runJob(u32 preferred, const JobRequest &request,
                JobReply &reply, std::string &error,
                bool *waited = nullptr);

  private:
    /**
     * One worker process. Its pid and pipes belong to whichever
     * thread has it checked out, so they sit outside `mutex`.
     */
    struct Worker
    {
        pid_t pid = -1;
        int toChild = -1;
        int fromChild = -1;
    };

    /** Check a worker out (see runJob); `waited` when none was idle
     * on arrival. */
    u32 claim(u32 preferred, bool &waited);
    /** Check a worker back in and wake the waiters. */
    void release(u32 index);
    /** Index of an idle worker, or size() when every one is busy. */
    u32 firstIdle() const ICICLE_REQUIRES(mutex);
    /**
     * Fork-safety rule, enforced against the lock-order runtime's
     * held-lock stack: a thread holds no icicle lock across this
     * fork. Dispatch holds none — a checked-out worker is owned by
     * its claim, not by a lock — so anything held here (the pool or
     * flight mutex, the fault plan, a store's ioMutex, the journal
     * callback lock) would be inherited locked by the child and is
     * recorded as a SYNC-003 violation.
     */
    void spawn(Worker &worker);
    /** SIGKILL (a wedged child never exits on its own), close, wait. */
    void reap(Worker &worker);
    [[noreturn]] static void childLoop(int rfd, int wfd);

    std::vector<Worker> workers;
    Mutex mutex{"serve.pool", lockrank::kServePool};
    /** Notified whenever a worker is checked in or a ticket served. */
    CondVar changed;
    std::vector<bool> idle ICICLE_GUARDED_BY(mutex);
    /** FIFO among waiters: the next ticket to hand out, and the
     * ticket whose holder may claim the next idle worker. */
    u64 nextTicket ICICLE_GUARDED_BY(mutex) = 0;
    u64 servingTicket ICICLE_GUARDED_BY(mutex) = 0;
    std::atomic<u64> restartCount{0};
    std::atomic<u64> jobCount{0};
    u32 jobTimeoutMs = 0;
};

} // namespace icicle

#endif // ICICLE_SERVE_POOL_HH
