#include "serve/pool.hh"

#include <algorithm>
#include <csignal>
#include <cstdlib>

#include <fcntl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "sweep/journal.hh"

namespace icicle
{

namespace
{

/** "core/workload": a job's run, as errors name it. */
std::string
runName(const JobRequest &request)
{
    return request.point.core + "/" + request.point.workload;
}

} // namespace

JobReply
runReply(const JobRequest &request,
         const std::vector<SweepResult> &results)
{
    JobReply reply;
    const std::string first = encodeSweepResult(results.at(0));
    for (const SweepResult &result : results) {
        if (encodeSweepResult(result) != first) {
            reply.error = "run " + runName(request) +
                          " differs across counter architectures (an "
                          "in-band HPM counter read), so no one "
                          "result serves it";
            return reply;
        }
    }
    reply.ok = true;
    reply.result = results[0];
    return reply;
}

WorkerPool::WorkerPool(u32 count, u32 jobTimeoutMs)
    : workers(std::max<u32>(count, 1)), jobTimeoutMs(jobTimeoutMs)
{
    // A worker death must surface as EPIPE on the dispatch write,
    // not a fatal signal to the daemon.
    std::signal(SIGPIPE, SIG_IGN);
    for (Worker &worker : workers)
        spawn(worker);
    LockGuard lock(mutex);
    idle.assign(workers.size(), true);
}

WorkerPool::~WorkerPool()
{
    // SIGKILL rather than EOF-and-wait: a worker mid-simulation (or
    // wedged after a respawn fork) would stall shutdown for as long
    // as its job runs; nothing a worker holds needs a clean exit —
    // the daemon owns all cache publishes.
    for (Worker &worker : workers)
        reap(worker);
}

void
WorkerPool::spawn(Worker &worker)
{
    // The PR-8 wedged-worker class, made checkable: record a
    // SYNC-003 violation if this thread holds any icicle lock across
    // the fork (see pool.hh).
    lockorder::checkForkSafety("WorkerPool::spawn", {});
    int to_child[2], from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0)
        fatal("cannot create worker pipes");
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("cannot fork worker process");
    if (pid == 0) {
        // Keep only stdio and this worker's own pipe ends: park the
        // pipes at fds 3/4 and close everything above. This drops
        // the ends inherited from every sibling (a duplicate of a
        // sibling's stdin write end would keep that worker alive
        // after the daemon closes it) and — on the respawn path —
        // the daemon's listen socket and every live client
        // connection (an inherited client fd would suppress the
        // EOF that client is owed for as long as this worker
        // lives). Everything here is async-signal-safe.
        const int rfd = ::fcntl(to_child[0], F_DUPFD, 64);
        const int wfd = ::fcntl(from_child[1], F_DUPFD, 64);
        if (rfd < 0 || wfd < 0 || ::dup2(rfd, 3) < 0 ||
            ::dup2(wfd, 4) < 0)
            ::_exit(127);
#if defined(SYS_close_range)
        ::syscall(SYS_close_range, 5u, ~0u, 0u);
#else
        for (int fd = 5; fd < 1024; fd++)
            ::close(fd);
#endif
        childLoop(3, 4);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    worker.pid = pid;
    worker.toChild = to_child[1];
    worker.fromChild = from_child[0];
}

void
WorkerPool::reap(Worker &worker)
{
    if (worker.toChild >= 0)
        ::close(worker.toChild);
    if (worker.fromChild >= 0)
        ::close(worker.fromChild);
    worker.toChild = worker.fromChild = -1;
    if (worker.pid > 0) {
        // The worker may be wedged (timeout path) or mid-simulation:
        // an EOF-only reap could block in waitpid indefinitely.
        ::kill(worker.pid, SIGKILL);
        ::waitpid(worker.pid, nullptr, 0);
    }
    worker.pid = -1;
}

void
WorkerPool::childLoop(int rfd, int wfd)
{
    std::signal(SIGPIPE, SIG_IGN);
    // Simulations are CPU-bound for hundreds of milliseconds; at a
    // much lower priority the daemon's serving threads (cache hits,
    // stats, window queries) preempt workers nearly instantly when a
    // request arrives — on a single-core host this is the
    // difference between microsecond and millisecond hit latency.
    // nice 15 is a ~40:1 scheduler weight ratio against the daemon.
    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded child
    ::nice(15);
    for (;;) {
        MsgType type;
        std::string payload;
        if (readFrame(rfd, type, payload) != FrameRead::Ok)
            std::_Exit(0); // daemon closed the pipe: clean shutdown
        JobReply reply;
        JobRequest request;
        if (type != MsgType::JobRequest ||
            !decodeJobRequest(payload, request)) {
            reply.error = "malformed job request";
        } else {
            try {
                // The run under every architecture as one grid
                // through the same engine the CLI uses (same run
                // sharing and retry policy), so the result — and
                // therefore the cached bytes — match a direct
                // icicle-sweep run exactly. Index 0 keeps the bytes
                // those of a one-point grid. The seed is key-only
                // today (reserved for seeded workload variants).
                GridSpec grid;
                grid.cores = {request.point.core};
                grid.workloads = {request.point.workload};
                grid.counterArchs = {CounterArch::Scalar,
                                     CounterArch::AddWires,
                                     CounterArch::Distributed};
                grid.maxCycles = request.point.maxCycles;
                grid.withTrace = false;
                std::vector<SweepResult> results =
                    runSweep(grid, SweepOptions{});
                for (SweepResult &result : results)
                    result.index = 0;
                reply = runReply(request, results);
            } catch (const FatalError &err) {
                reply.error = err.what();
            }
        }
        if (!writeFrame(wfd, MsgType::JobResponse,
                        encodeJobReply(reply)))
            std::_Exit(0);
    }
}

u32
WorkerPool::firstIdle() const
{
    return static_cast<u32>(std::find(idle.begin(), idle.end(), true) -
                            idle.begin());
}

u32
WorkerPool::claim(u32 preferred, bool &waited)
{
    UniqueLock lock(mutex);
    const u64 ticket = nextTicket++;
    waited = false;
    // First come, first served: a job claims a worker only once every
    // earlier waiter has one.
    while (ticket != servingTicket || firstIdle() == size()) {
        waited = true;
        changed.wait(lock);
    }
    servingTicket++;
    u32 index = preferred % size();
    if (!idle[index])
        index = firstIdle();
    idle[index] = false;
    // The next ticket holder may find another worker idle.
    changed.notifyAll();
    return index;
}

void
WorkerPool::release(u32 index)
{
    LockGuard lock(mutex);
    idle[index] = true;
    changed.notifyAll();
}

bool
WorkerPool::runJob(u32 preferred, const JobRequest &request,
                   JobReply &reply, std::string &error, bool *waited)
{
    bool queued = false;
    const u32 index = claim(preferred, queued);
    if (waited)
        *waited = queued;
    Worker &worker = workers[index];
    jobCount.fetch_add(1, std::memory_order_relaxed);
    // Two tries: the second lands on a freshly respawned worker if
    // the first found (or left) a corpse.
    bool answered = false;
    const char *failure = " died";
    for (int attempt = 0; attempt < 2; attempt++) {
        if (worker.pid < 0) {
            spawn(worker);
            restartCount.fetch_add(1, std::memory_order_relaxed);
        }
        // Injected worker crash (kill@worker#K): SIGKILL the child
        // at dispatch, parent-side, so the fault works even though
        // workers forked before the plan was armed. The dispatch
        // below then finds a corpse and the respawn path recovers.
        if (faultPlan().onWorkerDispatch() && worker.pid > 0)
            ::kill(worker.pid, SIGKILL);
        if (!writeFrame(worker.toChild, MsgType::JobRequest,
                        encodeJobRequest(request))) {
            reap(worker);
            continue;
        }
        MsgType type;
        std::string payload;
        const FrameRead got = readFrameDeadline(
            worker.fromChild, type, payload, jobTimeoutMs);
        answered = got == FrameRead::Ok &&
                   type == MsgType::JobResponse &&
                   decodeJobReply(payload, reply);
        if (answered)
            break;
        // A Timeout means the worker is alive but wedged (e.g. a
        // respawn fork that landed on a held heap lock); reap()
        // SIGKILLs it so the worker recovers instead of hanging.
        if (got == FrameRead::Timeout)
            failure = " timed out";
        reap(worker);
    }
    // Checked back in before the caller publishes: no other job
    // should wait behind the fsyncs of a cache publish.
    release(index);
    if (answered)
        return true;
    error = "worker " + std::to_string(index) + failure +
            " twice running " + runName(request);
    return false;
}

} // namespace icicle
