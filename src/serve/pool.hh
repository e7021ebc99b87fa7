/**
 * @file
 * The icicled worker process pool.
 *
 * Simulation jobs run in forked child processes, not daemon threads:
 * a job that corrupts memory, trips an injected fault, or gets
 * SIGKILLed takes down one worker, not the daemon or its cache. One
 * worker per shard. A job is one run: the missing counter
 * architectures of one (core, workload), which the worker simulates
 * once as one runSweep grid. A run's shard is its arch-independent
 * hash (serveRunHash) modulo the shard count, and the server's
 * per-shard lock doubles as single-flight — two concurrent requests
 * for the same run serialize on the shard, and the second finds the
 * first's published cache entries when the server re-checks under
 * that lock.
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
 * by the deadline is SIGKILLed and reaped instead of wedging its
 * shard, and the job is retried once on a fresh worker.
 */

#ifndef ICICLE_SERVE_POOL_HH
#define ICICLE_SERVE_POOL_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.hh"
#include "serve/protocol.hh"

namespace icicle
{

class WorkerPool
{
  public:
    /**
     * Forks `shards` workers (clamped to >= 1). `jobTimeoutMs`
     * bounds each dispatch's wait for the worker's reply frame
     * (0 = wait forever); a worker that misses the deadline is
     * SIGKILLed and respawned.
     */
    explicit WorkerPool(u32 shards, u32 jobTimeoutMs = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    u32 shards() const
    { return static_cast<u32>(workers.size()); }

    /** Workers respawned after dying (not the initial forks). */
    u64 restarts() const
    { return restartCount.load(std::memory_order_relaxed); }

    /** Jobs dispatched (runJob calls; a retried job counts once). */
    u64 jobs() const
    { return jobCount.load(std::memory_order_relaxed); }

    /**
     * Run one job on the shard's worker, serialized per shard.
     * Returns false and fills `error` only when the worker died,
     * timed out or sent a reply that does not answer every point of
     * the job, and its replacement failed too; a job that merely
     * fails inside the simulator comes back true with Failed result
     * statuses.
     */
    bool runJob(u32 shard, const JobRequest &request,
                JobReply &reply, std::string &error);

  private:
    struct Worker
    {
        pid_t pid = -1;
        int toChild = -1;
        int fromChild = -1;
        /** Serializes dispatch on this shard (single-flight). */
        Mutex mutex{"serve.pool.worker", lockrank::kServeWorker};
    };

    /**
     * Fork-safety rule, enforced against the lock-order runtime's
     * held-lock stack: the only icicle locks a thread may hold
     * across this fork are the dispatch pair (its shard's
     * single-flight lock and the worker's own mutex, on the respawn
     * path). Anything else held here — the fault plan, a store's
     * ioMutex, the journal callback lock — would be inherited locked
     * by the child and is recorded as a SYNC-003 violation.
     */
    void spawn(Worker &worker);
    /** SIGKILL (a wedged child never exits on its own), close, wait. */
    void reap(Worker &worker);
    [[noreturn]] static void childLoop(int rfd, int wfd);

    std::vector<std::unique_ptr<Worker>> workers;
    std::atomic<u64> restartCount{0};
    std::atomic<u64> jobCount{0};
    u32 jobTimeoutMs = 0;
};

} // namespace icicle

#endif // ICICLE_SERVE_POOL_HH
