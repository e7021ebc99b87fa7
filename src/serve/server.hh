/**
 * @file
 * IcicleServer: the long-running experiment service behind icicled.
 *
 * Listens on a Unix-domain stream socket and serves protocol.hh
 * frames: sweep grids (simulated on the worker process pool,
 * memoised in the content-addressed ResultCache), windowed TMA
 * queries over .icst stores (served from one shared thread-safe
 * StoreReader per store file — footer counts, no block decodes for
 * covered blocks), live stats, and shutdown.
 *
 * Construction order is load-bearing: the worker pool forks its
 * children before the listening socket exists and before any thread
 * starts (see pool.hh). run() then accepts connections and handles
 * each on its own thread. A sweep is served one run at a time — the
 * points of one (core, workload), which differ only in counter
 * architecture and share one result — with one cache lookup per run,
 * and a missing run is filled by one worker job on the first idle
 * worker and one publish. Single-flight is per run: N concurrent
 * clients asking for the same cold run simulate it once, and N-1 of
 * them wait for that flight and then hit its published cache entry.
 *
 * Request handling never takes the daemon down: malformed frames
 * drop the connection, invalid requests get an Error reply, worker
 * deaths respawn and retry. The only deliberate exits are Shutdown
 * frames and injected kill@store faults (which SIGKILL the daemon
 * mid-cache-publish — the crash drill CI runs).
 */

#ifndef ICICLE_SERVE_SERVER_HH
#define ICICLE_SERVE_SERVER_HH

#include <array>
#include <atomic>
#include <iterator>
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
    std::string socketPath{};
    /** ResultCache directory (created if needed). */
    std::string cacheDir{};
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
};

/**
 * The daemon's monotonic counters, in the order `icicled stats`
 * prints them. The enum is the one list: ServeStats, snapshot() and
 * statsText() are all driven by it and kServeStatNames.
 */
enum class ServeStat : u8
{
    Requests,
    SweepRequests,
    WindowRequests,
    Points,
    CacheHits,
    CacheMisses,
    /** Points simulated by a worker. */
    Simulated,
    Errors,
    /** Connections shed at accept (max-conns). */
    ShedConns,
    /** Requests shed at a full miss path (max-queue). */
    ShedRequests,
    /** Cache publications that failed (ENOSPC and friends). */
    PublishFailures,
    /** Points served compute-only while degraded. */
    DegradedPoints,
    /** Requests that waited on another request's in-flight run. */
    FlightWaits,
    /** Worker jobs that found every worker busy. */
    WorkerWaits,
};

/** The `icicled stats` key of each ServeStat, in enum order. */
constexpr const char *kServeStatNames[] = {
    "requests",       "sweep_requests",   "window_requests",
    "points",         "cache_hits",       "cache_misses",
    "jobs_simulated", "errors",           "shed_conns",
    "shed_requests",  "publish_failures", "degraded_points",
    "flight_waits",   "worker_waits"};

constexpr size_t kServeStatCount = std::size(kServeStatNames);
static_assert(kServeStatCount ==
                  static_cast<size_t>(ServeStat::WorkerWaits) + 1,
              "one stats key per ServeStat");

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
 *    pinned exception: `Points` is incremented with release order
 *    *after* its hit/miss accounting (countPoint), and snapshot()
 *    reads `Points` first with acquire order — so every snapshot
 *    satisfies CacheHits + CacheMisses >= Points. Any other
 *    cross-counter relation (e.g. CacheMisses == Simulated) holds
 *    only at quiescence.
 *
 * test_serve's ServeStats suite pins both guarantees under a
 * multi-threaded hammer.
 */
class ServeStats
{
  public:
    /** Plain-integer copy taken by snapshot(). */
    struct Snapshot
    {
        std::array<u64, kServeStatCount> values{};

        u64
        operator[](ServeStat stat) const
        {
            return values[static_cast<size_t>(stat)];
        }
    };

    void
    add(ServeStat stat, u64 count = 1)
    {
        at(stat).fetch_add(count, std::memory_order_relaxed);
    }

    /**
     * Account one served point. The hit/miss counters land before
     * `Points` (release): see the snapshot contract above.
     */
    void
    countPoint(bool hit)
    {
        if (hit) {
            add(ServeStat::CacheHits);
        } else {
            add(ServeStat::CacheMisses);
            add(ServeStat::Simulated);
        }
        at(ServeStat::Points).fetch_add(1, std::memory_order_release);
    }

    /** Torn-snapshot read honouring the contract above. */
    Snapshot
    snapshot() const
    {
        Snapshot s;
        // `Points` first, acquire: the accounting of every counted
        // point happened-before the loads below.
        const size_t points = static_cast<size_t>(ServeStat::Points);
        s.values[points] =
            counters[points].load(std::memory_order_acquire);
        for (size_t i = 0; i < kServeStatCount; i++) {
            if (i != points)
                s.values[i] =
                    counters[i].load(std::memory_order_relaxed);
        }
        return s;
    }

  private:
    std::atomic<u64> &
    at(ServeStat stat)
    {
        return counters[static_cast<size_t>(stat)];
    }

    std::array<std::atomic<u64>, kServeStatCount> counters{};
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
     * look up the run's one entry, else fill it with one job on an
     * idle worker, single-flight per run. Fills one result per point
     * (index left to the caller) and `hit`; false on worker failure
     * (error filled) or shed (shed set, error empty).
     */
    bool runResults(std::span<const SweepPoint> run, u64 seed,
                    std::span<SweepResult> results, bool &hit,
                    bool &shed, std::string &error);
    /**
     * The shared reader of the store file now at `path`: a new one
     * when the file was replaced (another device, inode, size or
     * mtime) since the last query opened it. A query still running on
     * the old reader keeps it alive.
     */
    std::shared_ptr<const StoreReader>
    readerFor(const std::string &path);
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
    /** How beginFlight() left a run. */
    enum class Flight : u8
    {
        Led,    ///< claimed the run's flight
        Waited, ///< waited for another flight, then claimed it
        Shed,   ///< the queue gate stayed full: nothing held
    };
    /**
     * Take run `run` (its cache key's hash) onto the miss path:
     * reserve a miss-path slot — one bounded grace wait when the
     * queue gate is full, then Shed — then wait for any flight
     * already holding the run and claim it. Led and Waited hold the
     * slot and the flight until endFlight().
     */
    Flight beginFlight(u64 run);
    /** End the flight, free its slot, wake every waiter. */
    void endFlight(u64 run);
    /** Try to publish the result of a run of `points` points;
     * tolerates failure by counting a strike and flipping degraded
     * mode at the threshold. */
    void publishGuarded(const ServeKey &key, const SweepResult &result,
                        size_t points);
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
     * The miss path: the cache-key hash of every run some request is
     * filling (single-flight per run), and the count of
     * runs holding a miss-path slot, from admission until their
     * flight ends (the --max-queue gate). The leader holds its entry
     * through the re-check, the job and the publish, but holds the
     * mutex only to admit, claim or end; a request that finds its
     * run here, or the gate full, waits on the condvar, which every
     * endFlight() notifies.
     */
    Mutex flightsMutex{"serve.flights", lockrank::kServeFlights};
    CondVar flightsCv;
    std::set<u64> flights ICICLE_GUARDED_BY(flightsMutex);
    u64 missRuns ICICLE_GUARDED_BY(flightsMutex) = 0;

    /** Sticky compute-only flag (see kDegradedAfter in server.cc). */
    std::atomic<bool> degraded{false};
    /** Consecutive publish failures (reset on success). */
    std::atomic<u32> publishStrikes{0};

    /** A store file as stat(2) names it: a rename over the path
     * changes the inode, a rewrite in place the size or mtime. */
    struct StoreFileId
    {
        u64 device = 0;
        u64 inode = 0;
        u64 size = 0;
        u64 mtimeNs = 0;

        bool operator==(const StoreFileId &) const = default;
    };
    struct OpenStore
    {
        StoreFileId file;
        std::shared_ptr<const StoreReader> reader;
    };
    /** One shared reader per queried store path (thread-safe
     * queries), with the file it opened. The map is guarded; the
     * readers themselves are internally thread-safe and are used
     * after readersMutex is released. */
    Mutex readersMutex{"serve.readers", lockrank::kServeReaders};
    std::map<std::string, OpenStore> readers
        ICICLE_GUARDED_BY(readersMutex);

    ServeStats stats;
};

} // namespace icicle

#endif // ICICLE_SERVE_SERVER_HH
