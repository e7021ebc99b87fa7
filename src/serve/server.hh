/**
 * @file
 * IcicleServer: the long-running experiment service behind icicled.
 *
 * Listens on a Unix-domain stream socket and serves protocol.hh
 * frames: sweep grids (simulated on the worker process pool,
 * memoised in the content-addressed ResultCache), windowed TMA
 * queries over .icst stores (served from one shared thread-safe
 * StoreReader per store — footer counts, no block decodes for
 * covered blocks), live stats, and shutdown.
 *
 * Construction order is load-bearing: the worker pool forks its
 * children before the listening socket exists and before any thread
 * starts (see pool.hh). run() then accepts connections and handles
 * each on its own thread. A sweep is served one run at a time — the
 * points of one (core, workload), which differ only in counter
 * architecture — and a run's misses are filled by one worker job on
 * the first idle worker. Single-flight is per run: N concurrent
 * clients asking for the same cold run simulate it once, and N-1 of
 * them wait for that flight and then hit its published cache
 * entries.
 *
 * Request handling never takes the daemon down: malformed frames
 * drop the connection, invalid requests get an Error reply, worker
 * deaths respawn and retry. The only deliberate exits are Shutdown
 * frames and injected kill@store faults (which SIGKILL the daemon
 * mid-cache-publish — the crash drill CI runs).
 */

#ifndef ICICLE_SERVE_SERVER_HH
#define ICICLE_SERVE_SERVER_HH

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/sync.hh"
#include "serve/cache.hh"
#include "serve/pool.hh"
#include "serve/protocol.hh"
#include "store/store.hh"

namespace icicle
{

struct ServerOptions
{
    /**
     * Unix-domain socket path. A stale file (nothing answers a
     * connect probe) is reclaimed; a path a live daemon answers on
     * is refused at construction.
     */
    std::string socketPath;
    /** ResultCache directory (created if needed). */
    std::string cacheDir;
    /** Worker processes (`--shards`). */
    u32 shards = 2;
    /**
     * Deadline on each worker's reply frame (0 = wait forever). A
     * worker that misses it is SIGKILLed and respawned, so a wedged
     * child degrades to one retried job instead of a dead worker.
     */
    u32 jobTimeoutMs = 300'000;
    /**
     * Admission gate: max in-flight connections (0 = unbounded).
     * Connections beyond the cap are shed with an Overloaded frame
     * at accept instead of spawning a thread.
     */
    u32 maxConns = 0;
    /**
     * Admission gate: max runs on the miss path per worker (0 =
     * unbounded), so at most maxQueue x shards runs wait for or hold
     * a flight at once. A full gate gets one bounded grace wait, then
     * the request is shed with Overloaded.
     */
    u32 maxQueue = 0;
    /**
     * Per-connection read deadline (0 = wait forever). An idle or
     * byte-trickling client is dropped, reclaiming its thread.
     */
    u32 idleTimeoutMs = 0;
    /** Retry-after hint carried in Overloaded replies, and the
     * admission gate's grace-wait bound. */
    u32 retryAfterMs = 50;
    /**
     * Consecutive cache-publish failures before the daemon flips to
     * degraded compute-only serving (results still correct, nothing
     * memoised; `degraded: 1` in stats).
     */
    u32 degradedAfter = 3;
};

/**
 * Monotonic service counters, updated lock-free from every
 * connection thread.
 *
 * Snapshot semantics are a documented torn-snapshot contract, not a
 * consistent read — taking a lock around the counters on every
 * request would serialize the whole serving surface to count it:
 *
 *  - Each counter individually is exact and monotonic: a snapshot
 *    never observes a counter going backwards, and once the service
 *    is quiescent a snapshot is exact.
 *  - Counters are NOT mutually consistent mid-flight, with one
 *    pinned exception: `points` is incremented with release order
 *    *after* its hit/miss accounting (countPoint), and snapshot()
 *    reads `points` first with acquire order — so every snapshot
 *    satisfies cacheHits + cacheMisses >= points. Any other
 *    cross-counter relation (e.g. cacheMisses == simulated) holds
 *    only at quiescence.
 *
 * test_serve's ServeStats suite pins both guarantees under a
 * multi-threaded hammer.
 */
struct ServeStats
{
    std::atomic<u64> requests{0};
    std::atomic<u64> sweepRequests{0};
    std::atomic<u64> windowRequests{0};
    std::atomic<u64> points{0};
    std::atomic<u64> cacheHits{0};
    std::atomic<u64> cacheMisses{0};
    std::atomic<u64> simulated{0};
    std::atomic<u64> errors{0};
    /** Connections shed at accept (max-conns). */
    std::atomic<u64> shedConns{0};
    /** Requests shed at a full miss path (max-queue). */
    std::atomic<u64> shedRequests{0};
    /** Cache publications that failed (ENOSPC and friends). */
    std::atomic<u64> publishFailures{0};
    /** Points served compute-only while degraded. */
    std::atomic<u64> degradedPoints{0};
    /** Requests that waited on another request's in-flight run. */
    std::atomic<u64> flightWaits{0};
    /** Worker jobs that found every worker busy. */
    std::atomic<u64> workerWaits{0};

    /** Plain-integer copy taken by snapshot(). */
    struct Snapshot
    {
        u64 requests = 0;
        u64 sweepRequests = 0;
        u64 windowRequests = 0;
        u64 points = 0;
        u64 cacheHits = 0;
        u64 cacheMisses = 0;
        u64 simulated = 0;
        u64 errors = 0;
        u64 shedConns = 0;
        u64 shedRequests = 0;
        u64 publishFailures = 0;
        u64 degradedPoints = 0;
        u64 flightWaits = 0;
        u64 workerWaits = 0;
    };

    /**
     * Account one served point. The hit/miss counters land before
     * `points` (release): see the snapshot contract above.
     */
    void
    countPoint(bool hit)
    {
        if (hit) {
            cacheHits.fetch_add(1, std::memory_order_relaxed);
        } else {
            cacheMisses.fetch_add(1, std::memory_order_relaxed);
            simulated.fetch_add(1, std::memory_order_relaxed);
        }
        points.fetch_add(1, std::memory_order_release);
    }

    /** Torn-snapshot read honouring the contract above. */
    Snapshot
    snapshot() const
    {
        Snapshot s;
        // `points` first, acquire: the accounting of every counted
        // point happened-before the loads below.
        s.points = points.load(std::memory_order_acquire);
        s.requests = requests.load(std::memory_order_relaxed);
        s.sweepRequests =
            sweepRequests.load(std::memory_order_relaxed);
        s.windowRequests =
            windowRequests.load(std::memory_order_relaxed);
        s.cacheHits = cacheHits.load(std::memory_order_relaxed);
        s.cacheMisses = cacheMisses.load(std::memory_order_relaxed);
        s.simulated = simulated.load(std::memory_order_relaxed);
        s.errors = errors.load(std::memory_order_relaxed);
        s.shedConns = shedConns.load(std::memory_order_relaxed);
        s.shedRequests =
            shedRequests.load(std::memory_order_relaxed);
        s.publishFailures =
            publishFailures.load(std::memory_order_relaxed);
        s.degradedPoints =
            degradedPoints.load(std::memory_order_relaxed);
        s.flightWaits = flightWaits.load(std::memory_order_relaxed);
        s.workerWaits = workerWaits.load(std::memory_order_relaxed);
        return s;
    }
};

class IcicleServer
{
  public:
    /** Forks workers, opens the cache, binds + listens. fatal() on
     * any setup failure. */
    explicit IcicleServer(const ServerOptions &options);
    ~IcicleServer();

    IcicleServer(const IcicleServer &) = delete;
    IcicleServer &operator=(const IcicleServer &) = delete;

    /**
     * Accept-and-serve until a Shutdown request (or stop()) — the
     * daemon's main loop. Joins every connection thread before
     * returning.
     */
    void run();

    /** Request shutdown from another thread (tests). */
    void stop();

  public:
    /** True once persistent publish failures flipped compute-only
     * serving (sticky; visible to tests and stats). */
    bool isDegraded() const { return degraded.load(); }

  private:
    void handleClient(int fd);
    /** False only when the connection must drop (protocol error). */
    bool dispatch(int fd, MsgType type, const std::string &payload);
    void handleSweep(int fd, const std::string &payload);
    void handleWindow(int fd, const std::string &payload);
    void handleStats(int fd);
    std::string statsText();
    /**
     * Serve one run — adjacent grid points of one (core, workload),
     * differing only in counter architecture — through cache + pool:
     * look up every point, then fill the misses with one job on an
     * idle worker, single-flight per run. Fills one result per point
     * (index left to the caller) and `hits`; false on worker failure
     * (error filled) or shed (shed set, error empty).
     */
    bool runResults(std::span<const SweepPoint> run, u64 seed,
                    std::span<SweepResult> results, u32 &hits,
                    bool &shed, std::string &error);
    StoreReader &readerFor(const std::string &path);
    void sendError(int fd, const std::string &message);
    /**
     * All server replies funnel through here: consults the fault
     * plan's stall@write and {conn-reset,torn-frame}@reply hooks.
     * False when the connection must drop (reset/torn/EPIPE).
     */
    bool sendReply(int fd, MsgType type, const std::string &payload);
    /** Shed notice (accept- or queue-level). Bypasses the reply
     * fault hooks so shed traffic does not perturb schedules. */
    void sendOverloaded(int fd, const std::string &reason);
    /**
     * Reserve a miss-path slot for one run: one bounded grace wait
     * when the gate is full, then false = shed.
     */
    bool admitMiss();
    void releaseMiss();
    /**
     * Claim the flight of run `run` (a serveRunHash), first waiting
     * for any flight already holding it. True when it waited.
     */
    bool beginFlight(u64 run);
    /** End the flight and wake the requests waiting for it. */
    void endFlight(u64 run);
    /** Try to publish `result`; tolerates failure by counting a
     * strike and flipping degraded mode at the threshold. */
    void publishGuarded(const ServeKey &key,
                        const SweepResult &result);
    /** Block until every connection thread has finished. */
    void waitForClients();

    ServerOptions opts;
    ResultCache cache;
    WorkerPool pool;
    int listenFd = -1;
    std::atomic<bool> stopping{false};

    /**
     * Connection threads run detached — joinable-but-finished
     * threads would pin their stacks for the daemon's lifetime under
     * connection churn — so liveness is tracked by count: each
     * thread decrements and notifies as its last touch of `this`,
     * and shutdown waits for zero before tearing anything down.
     */
    Mutex connMutex{"serve.conn", lockrank::kServeConn};
    CondVar connCv;
    u64 liveClients ICICLE_GUARDED_BY(connMutex) = 0;

    /**
     * Admission gate: runs on the miss path, from admission until
     * their flight ends. Connection threads take this (rank between
     * serve.conn and serve.flights) to reserve a slot before waiting
     * on a flight or a worker, so overload is shed with an explicit
     * Overloaded reply instead of an unbounded queue. The condvar is
     * notified on every release; a full gate gets one bounded grace
     * wait.
     */
    Mutex admissionMutex{"serve.admission",
                         lockrank::kServeAdmission};
    CondVar admissionCv;
    u64 missRuns ICICLE_GUARDED_BY(admissionMutex) = 0;

    /**
     * Single-flight per run: the serveRunHash of every run whose
     * misses some request is filling. The leader holds its entry
     * through the re-check, the job and the publishes, but holds the
     * mutex only to add or erase it; a request that finds its run
     * here waits on the condvar, then re-checks the cache.
     */
    Mutex flightsMutex{"serve.flights", lockrank::kServeFlights};
    CondVar flightsCv;
    std::set<u64> flights ICICLE_GUARDED_BY(flightsMutex);

    /** Sticky compute-only flag (see ServerOptions::degradedAfter). */
    std::atomic<bool> degraded{false};
    /** Consecutive publish failures (reset on success). */
    std::atomic<u32> publishStrikes{0};

    /** One shared reader per queried store (thread-safe queries).
     * The map is guarded; the readers themselves are internally
     * thread-safe and are used after readersMutex is released. */
    Mutex readersMutex{"serve.readers", lockrank::kServeReaders};
    std::map<std::string, std::unique_ptr<StoreReader>> readers
        ICICLE_GUARDED_BY(readersMutex);

    ServeStats stats;
};

} // namespace icicle

#endif // ICICLE_SERVE_SERVER_HH
