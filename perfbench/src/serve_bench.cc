/**
 * @file
 * The serve-mix workload: the shipped `icicled serve` in its own
 * process (two shards, default admission), driven by kMixClients
 * closed-loop load threads. Every request opens its own connection,
 * as one icicled CLI call does, and every reply is byte-compared
 * with the direct computation of the same query or window, made
 * before timing: hot sweeps must be all cache hits, cold sweeps all
 * simulated.
 *
 * The traced run records each request's connect and exchange spans
 * under a request id, then replays the request's daemon-side work as
 * child spans through the public calls the daemon makes: protocol
 * encode/decode, request validation, cache lookups, report
 * formatting, windowed TMA on a StoreReader, and for misses
 * WorkerPool::runJob on a benchmark-owned one-shard pool plus
 * ResultCache::publish into a scratch cache.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include "bench.hh"
#include "common/logging.hh"
#include "mix.hh"
#include "serve/cache.hh"
#include "serve/chaos.hh"
#include "serve/client.hh"
#include "serve/pool.hh"
#include "serve/protocol.hh"
#include "spans.hh"
#include "stats.hh"
#include "store/store.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

extern char **environ;

namespace perfbench
{

namespace
{

using namespace icicle;

/** Cycle budget of every served point (all pairs finish well
 * inside it). */
constexpr u64 kServeCycles = 1'000'000;
constexpr u32 kShards = 2;
/** Cycle budget of the two window stores. */
constexpr u64 kStoreCycles = 1'500'000;
constexpr u32 kWindowsPerStore = 32;
constexpr double kReadySeconds = 30;
/** Hard stop for a timed phase, far inside the run limit. */
constexpr double kMaxPhaseSeconds = 100;
/** Equal parts of the untraced timed phase, each after one more
 * daemon set-up; ops_per_s comes from the faster half of the parts
 * (see fasterHalf), setup_s is the median of all set-ups. */
constexpr u32 kParts = 6;

const char *const kPairCores[] = {"rocket", "boom-small"};
const char *const kPairWorkloads[] = {"vvadd", "qsort", "towers",
                                      "coremark"};
constexpr u32 kPairs = 8;
const std::vector<CounterArch> kArchs = {
    CounterArch::Scalar, CounterArch::AddWires, CounterArch::Distributed};

/** The window stores: one Rocket and one BOOM-large TMA bundle. */
const std::pair<const char *, const char *> kStores[] = {
    {"rocket", "505.mcf_r"}, {"boom-large", "523.xalancbmk_r"}};

SweepQuery
pairQuery(u32 pair, u64 seed)
{
    SweepQuery query;
    query.cores = {kPairCores[pair / 4]};
    query.workloads = {kPairWorkloads[pair % 4]};
    query.archs = kArchs;
    query.maxCycles = kServeCycles;
    query.seed = seed;
    query.format = "csv";
    return query;
}

GridSpec
queryGrid(const SweepQuery &query)
{
    GridSpec grid;
    grid.cores = query.cores;
    grid.workloads = query.workloads;
    grid.counterArchs = query.archs;
    grid.maxCycles = query.maxCycles;
    return grid;
}

/** The bytes a window reply is compared on (the decode-count
 * evidence varies with the daemon's reader history). */
std::string
windowBytes(const TmaResult &tma)
{
    WindowReply reply;
    reply.tma = tma;
    return encodeWindowReply(reply);
}

/** Inputs and expected outputs, made before anything is timed. */
struct Inputs
{
    /** Per pair: the direct icicle-sweep CSV of its three points. */
    std::vector<std::string> reports;
    std::vector<WindowQuery> windows;
    std::vector<std::string> windowExpected;
};

Inputs
makeInputs(const Options &opts)
{
    Inputs in;
    for (u32 pair = 0; pair < kPairs; pair++) {
        const std::vector<SweepResult> rows =
            runSweep(queryGrid(pairQuery(pair, kHotSeed)));
        for (const SweepResult &r : rows) {
            if (r.status != SweepStatus::Ok || r.exitCode != 0)
                fatal("direct run of ", r.label, " failed");
        }
        in.reports.push_back(formatSweepCsv(rows));
    }
    for (u32 s = 0; s < 2; s++) {
        std::unique_ptr<Core> core = makeSweepCore(
            kStores[s].first, CounterArch::AddWires,
            buildWorkload(kStores[s].second));
        const Trace trace =
            traceRun(*core, TraceSpec::tmaBundle(*core), kStoreCycles);
        const std::string path =
            opts.workDir + "/store-" + std::to_string(s) + ".icst";
        trace.toStore(path);
        const TraceAnalyzer analyzer(trace);
        const u32 block_cycles = StoreReader(path).blockCycles();
        for (const auto &[begin, end] :
             drawWindows(opts.seed, s, trace.numCycles(), block_cycles,
                         kWindowsPerStore)) {
            WindowQuery query;
            query.storePath = path;
            query.begin = begin;
            query.end = end;
            query.coreWidth = core->coreWidth();
            in.windows.push_back(query);
            in.windowExpected.push_back(windowBytes(
                analyzer.windowTma(begin, end, query.coreWidth)));
        }
    }
    return in;
}

bool
sweepReplyOk(const SweepReply &reply, const std::string &expected,
             bool hot)
{
    const u32 points = static_cast<u32>(kArchs.size());
    const bool path_ok = hot ? reply.cacheHits == points &&
                                   reply.simulated == 0
                             : reply.simulated == points &&
                                   reply.cacheHits == 0;
    return reply.report == expected && reply.points == points &&
           reply.allOk && path_ok;
}

/** `icicled serve` in its own process. */
class Daemon
{
  public:
    Daemon(const std::string &icicled, const std::string &dir)
        : sock(dir + "/d.sock"), cache(dir + "/cache"),
          log(dir + "/daemon.log")
    {
        std::filesystem::create_directories(dir);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const std::string shards = std::to_string(kShards);
        std::vector<std::string> args = {icicled,      "serve",
                                         "--socket",   sock,
                                         "--cache-dir", cache,
                                         "--shards",   shards};
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        const int rc = posix_spawn(&child, icicled.c_str(), &actions,
                                   nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            child = -1;
            fatal("cannot start ", icicled, ": ", errnoText(rc));
        }
    }

    ~Daemon()
    {
        if (child <= 0)
            return;
        // Error path: a graceful stop reaps the workers too; a daemon
        // that cannot take one is killed (its workers exit on EOF).
        try {
            shutdown();
        } catch (const std::exception &err) {
            warn("icicled shutdown failed (", err.what(), ")");
            if (child > 0) {
                for (pid_t worker : childPids(child))
                    ::kill(worker, SIGKILL);
                ::kill(child, SIGKILL);
                ::waitpid(child, nullptr, 0);
                child = -1;
            }
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return sock; }
    const std::string &cacheDir() const { return cache; }
    pid_t pid() const { return child; }

    /** Block until the daemon answers a ping on its socket. */
    void
    waitReady()
    {
        ClientOptions once;
        once.maxRetries = 0;
        const Clock::time_point start = Clock::now();
        for (;;) {
            try {
                ServeClient client(sock, once);
                client.ping();
                return;
            } catch (const FatalError &) {
            }
            int status = 0;
            if (::waitpid(child, &status, WNOHANG) == child) {
                child = -1;
                fatal("icicled exited during start-up: ", logTail());
            }
            if (secondsSince(start) > kReadySeconds)
                fatal("icicled did not answer a ping within ",
                      kReadySeconds, " s: ", logTail());
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    /** Ask the daemon to exit and wait until it (and, through its
     * pool, every worker) has ended. */
    void
    shutdown()
    {
        {
            ServeClient client(sock);
            client.shutdown();
        }
        int status = 0;
        ::waitpid(child, &status, 0);
        child = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            fatal("icicled ended abnormally: ", logTail());
    }

  private:
    std::string
    logTail() const
    {
        std::ifstream in(log);
        std::stringstream text;
        text << in.rdbuf();
        const std::string all = text.str();
        return all.size() > 400 ? all.substr(all.size() - 400) : all;
    }

    std::string sock;
    std::string cache;
    std::string log;
    pid_t child = -1;
};

/** Host time of one request's replayed daemon-side steps. */
struct RequestTrace
{
    RequestKind kind = RequestKind::Hot;
    double latency = 0;
    double connect = 0;
    double ping = 0;
    double protocol = 0;
    double validate = 0;
    /** Per point: lookups (hits), job/in-process/publish (misses). */
    std::vector<double> lookups;
    std::vector<double> jobs;
    std::vector<double> inproc;
    std::vector<double> publishes;
    double report = 0;
    double window = 0;
    /** Blocks the client's reader decoded for the window. */
    u64 blocks = 0;
};

/** One completed request. */
struct Sample
{
    RequestKind kind = RequestKind::Hot;
    double ms = 0;
};

/** What one load thread saw. */
struct ClientLog
{
    u64 attempted = 0;
    u64 failed = 0;
    /** Client retries (sheds are counted by the daemon). */
    u64 retries = 0;
    std::vector<Sample> latencies;
    std::vector<RequestTrace> traces;
    SpanLog spans;
};

/**
 * Replays requests' daemon-side work under spans (traced runs): hit
 * lookups read the daemon's cache, misses run on a one-shard pool of
 * the benchmark's own and publish into a scratch cache. The pool
 * forks at construction, so this must exist before any thread.
 */
class Replayer
{
  public:
    Replayer(const Daemon &daemon, const std::string &scratch_cache)
        : pool(1, 300'000), scratch(scratch_cache),
          daemonCache(daemon.cacheDir()), sock(daemon.socket())
    {
    }

    Replayer(const Replayer &) = delete;
    Replayer &operator=(const Replayer &) = delete;

    /** Replay one request; false when the replay disagrees with the
     * direct computation. */
    bool
    replay(const MixRequest &req, u64 id, double t0, double t1,
           double t2, const SweepReply &sweep_reply,
           const WindowReply &window_reply, const Inputs &in,
           std::vector<std::unique_ptr<StoreReader>> &readers,
           ClientLog &out)
    {
        RequestTrace trace;
        trace.kind = req.kind;
        trace.latency = t2 - t0;
        trace.connect = t1 - t0;
        SpanLog &log = out.spans;
        const i64 root =
            log.add("serve.request", id, kNoParent, t0, t2);
        log.add("serve.connect", id, root, t0, t1);
        log.add("serve.exchange", id, root, t1, t2);
        auto timed = [&](const char *layer, auto &&fn) {
            const double a = nowSeconds();
            fn();
            const double b = nowSeconds();
            log.add(layer, id, root, a, b);
            return b - a;
        };

        {
            ServeClient fresh(sock);
            trace.ping = timed("serve.ping", [&] { fresh.ping(); });
        }
        bool ok = true;
        if (req.kind == RequestKind::Window) {
            const WindowQuery &query = in.windows.at(req.window);
            trace.protocol = timed("serve.protocol", [&] {
                const std::string q = encodeWindowQuery(query);
                encodeFrame(MsgType::WindowTmaRequest, q);
                WindowQuery back;
                ok &= decodeWindowQuery(q, back);
                const std::string r = encodeWindowReply(window_reply);
                encodeFrame(MsgType::WindowTmaResponse, r);
                WindowReply reply;
                ok &= decodeWindowReply(r, reply);
            });
            const u32 store = req.window / kWindowsPerStore;
            if (!readers[store])
                readers[store] =
                    std::make_unique<StoreReader>(query.storePath);
            const u64 decoded = readers[store]->blocksDecoded();
            TmaResult tma;
            trace.window = timed("store.window", [&] {
                tma = readers[store]->windowTma(query.begin, query.end,
                                                query.coreWidth);
            });
            trace.blocks = readers[store]->blocksDecoded() - decoded;
            ok &= windowBytes(tma) == in.windowExpected.at(req.window);
            out.traces.push_back(std::move(trace));
            return ok;
        }

        const SweepQuery query = pairQuery(req.pair, req.seed);
        trace.protocol = timed("serve.protocol", [&] {
            const std::string q = encodeSweepQuery(query);
            encodeFrame(MsgType::SweepRequest, q);
            SweepQuery back;
            ok &= decodeSweepQuery(q, back);
            const std::string r = encodeSweepReply(sweep_reply);
            encodeFrame(MsgType::SweepResponse, r);
            SweepReply reply;
            ok &= decodeSweepReply(r, reply);
        });
        trace.validate = timed("serve.validate", [&] {
            const std::vector<std::string> known = sweepCoreNames();
            ok &= std::find(known.begin(), known.end(),
                            query.cores[0]) != known.end();
            buildWorkload(query.workloads[0]);
        });
        const std::vector<SweepPoint> points =
            queryGrid(query).expand();
        std::vector<SweepResult> rows(points.size());
        for (size_t i = 0; i < points.size(); i++) {
            if (req.kind == RequestKind::Hot) {
                trace.lookups.push_back(
                    timed("serve.cache.lookup", [&] {
                        ok &= daemonCache.lookup(
                            serveCacheKey(points[i], req.seed),
                            rows[i]);
                    }));
            } else {
                JobRequest job;
                job.point = points[i];
                job.seed = req.seed;
                JobReply reply;
                {
                    std::lock_guard<std::mutex> lock(poolMutex);
                    trace.jobs.push_back(timed("serve.pool.job", [&] {
                        std::string error;
                        ok &= pool.runJob(0, job, reply, error) &&
                              reply.ok;
                    }));
                }
                trace.inproc.push_back(timed("serve.inproc", [&] {
                    GridSpec grid = queryGrid(query);
                    grid.counterArchs = {points[i].counterArch};
                    runSweep(grid);
                }));
                const ServeKey key = serveCacheKey(points[i], req.seed);
                trace.publishes.push_back(
                    timed("serve.cache.publish",
                          [&] { scratch.publish(key, reply.result); }));
                rows[i] = reply.result;
            }
            rows[i].index = i;
            rows[i].point = points[i];
            rows[i].label = sweepPointLabel(points[i]);
        }
        std::string report;
        trace.report = timed("serve.report",
                             [&] { report = formatSweepCsv(rows); });
        ok &= report == in.reports.at(req.pair);
        out.traces.push_back(std::move(trace));
        return ok;
    }

  private:
    WorkerPool pool;
    /** Held around runJob so one client's replay never times
     * another's (runJob serializes per shard anyway). */
    std::mutex poolMutex;
    ResultCache scratch;
    ResultCache daemonCache;
    std::string sock;
};

/** Per-kind sample counts, shared by the load threads. */
struct Counts
{
    std::atomic<u64> byKind[3] = {0, 0, 0};

    u64
    total() const
    {
        return byKind[0].load() + byKind[1].load() + byKind[2].load();
    }
};

/** When a phase may stop once its time is up. */
using Enough = bool (*)(const Counts &);

bool
enoughForOps(const Counts &counts)
{
    return counts.total() >= samplesNeeded(0.50);
}

/** Enough for the per-kind percentiles the traced run reports. */
bool
enoughForClasses(const Counts &counts)
{
    return counts.byKind[0].load() >= samplesNeeded(0.99) &&
           counts.byKind[1].load() >= samplesNeeded(0.90) &&
           counts.byKind[2].load() >= samplesNeeded(0.90);
}

/** Enough for a median of every kind's replayed steps. */
bool
enoughForMedians(const Counts &counts)
{
    for (const std::atomic<u64> &count : counts.byKind) {
        if (count.load() < samplesNeeded(0.50))
            return false;
    }
    return true;
}

/** One closed-loop load thread. */
void
clientLoop(const std::string &sock, const Inputs &in,
           RequestMix &mix, u32 client, double seconds, Enough enough,
           Counts &counts, Replayer *replayer, ClientLog &out)
{
    const Clock::time_point start = Clock::now();
    std::vector<std::unique_ptr<StoreReader>> readers(2);
    for (u64 seq = 0;; seq++) {
        const double elapsed = secondsSince(start);
        if ((elapsed >= seconds && enough(counts)) ||
            elapsed >= kMaxPhaseSeconds)
            break;
        const MixRequest req = mix.next();
        const u64 id = (static_cast<u64>(client) << 48) | seq;
        out.attempted++;
        std::unique_ptr<ServeClient> conn;
        try {
            const double t0 = nowSeconds();
            conn = std::make_unique<ServeClient>(sock);
            const double t1 = nowSeconds();
            bool ok = false;
            SweepReply sweep_reply;
            WindowReply window_reply;
            if (req.kind == RequestKind::Window) {
                window_reply = conn->windowTma(in.windows.at(req.window));
                ok = windowBytes(window_reply.tma) ==
                     in.windowExpected.at(req.window);
            } else {
                sweep_reply = conn->sweep(pairQuery(req.pair, req.seed));
                ok = sweepReplyOk(sweep_reply, in.reports.at(req.pair),
                                  req.kind == RequestKind::Hot);
            }
            const double t2 = nowSeconds();
            if (ok && replayer)
                ok = replayer->replay(req, id, t0, t1, t2, sweep_reply,
                                      window_reply, in, readers, out);
            if (ok) {
                out.latencies.push_back(Sample{req.kind, (t2 - t0) * 1e3});
                counts.byKind[static_cast<int>(req.kind)]++;
            } else {
                out.failed++;
                warn("serve-mix: ", requestKindName(req.kind),
                     " request ", id, " failed its output check");
            }
        } catch (const std::exception &err) {
            // Raised, or out of retries: a failed request.
            out.failed++;
            warn("serve-mix: ", requestKindName(req.kind), " request ",
                 id, ": ", err.what());
        }
        if (conn)
            out.retries += conn->retries();
    }
}

struct Phase
{
    double seconds = 0;
    u64 completed = 0;
    std::vector<ClientLog> clients;

    /** Append another phase's requests and time. */
    void
    merge(const Phase &other)
    {
        seconds += other.seconds;
        completed += other.completed;
        clients.insert(clients.end(), other.clients.begin(),
                       other.clients.end());
    }
};

Phase
runPhase(const Daemon &daemon, const Inputs &in,
         std::vector<RequestMix> &mixes, double seconds, Enough enough,
         Replayer *replayer)
{
    Phase phase;
    phase.clients.resize(kMixClients);
    Counts counts;
    const Clock::time_point start = Clock::now();
    {
        std::vector<std::thread> threads;
        for (u32 c = 0; c < kMixClients; c++) {
            threads.emplace_back([&, c] {
                clientLoop(daemon.socket(), in, mixes[c], c, seconds,
                           enough, counts, replayer, phase.clients[c]);
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    phase.seconds = secondsSince(start);
    phase.completed = counts.total();
    return phase;
}

/** Daemon start-up through a ping answer, then the warm-up: every
 * hot pair once (24 simulations), each reply checked. */
std::unique_ptr<Daemon>
startDaemon(const Options &opts, const Inputs &in, u32 rep,
            double &seconds)
{
    const Clock::time_point start = Clock::now();
    auto daemon = std::make_unique<Daemon>(
        opts.icicled, opts.workDir + "/daemon-" + std::to_string(rep));
    daemon->waitReady();
    for (u32 pair = 0; pair < kPairs; pair++) {
        ServeClient client(daemon->socket());
        const SweepReply reply =
            client.sweep(pairQuery(pair, kHotSeed));
        if (!sweepReplyOk(reply, in.reports[pair], false))
            fatal("warm-up of pair ", pair,
                  " did not match the direct run");
    }
    seconds = secondsSince(start);
    return daemon;
}

/** Samples of one request kind, in ms. */
std::vector<double>
latencies(const Phase &phase, RequestKind kind, bool all = false)
{
    std::vector<double> out;
    for (const ClientLog &client : phase.clients) {
        for (const Sample &sample : client.latencies) {
            if (all || sample.kind == kind)
                out.push_back(sample.ms);
        }
    }
    return out;
}

/**
 * Request rate over the faster half of a run's parts, ranked by time
 * per completed request.
 */
double
fasterPartRate(const std::vector<Phase> &parts)
{
    std::vector<double> costs;
    for (const Phase &part : parts)
        costs.push_back(part.seconds /
                        std::max(1.0, static_cast<double>(part.completed)));
    double seconds = 0, completed = 0;
    for (size_t part : fasterHalf(costs)) {
        seconds += parts[part].seconds;
        completed += static_cast<double>(parts[part].completed);
    }
    return completed / seconds;
}

/** Each load thread's seeded request sequence. */
std::vector<RequestMix>
requestMixes(const Options &opts, const Inputs &in)
{
    std::vector<RequestMix> mixes;
    for (u32 c = 0; c < kMixClients; c++)
        mixes.emplace_back(opts.seed, c, kPairs,
                           static_cast<u32>(in.windows.size()));
    return mixes;
}

void
account(const Phase &phase, RunResult &result, u64 &retries)
{
    for (const ClientLog &client : phase.clients) {
        result.attempted += client.attempted;
        result.failed += client.failed;
        retries += client.retries;
    }
    result.correct &= result.failed == 0;
}

/** The daemon's own counters. */
struct DaemonStats
{
    u64 hits = 0;
    u64 points = 0;
    /** Shed at accept (max-conns) or at a full shard queue. */
    u64 sheds = 0;

    /** Cache hits per served point since `before`. */
    double
    hitRatioSince(const DaemonStats &before) const
    {
        return points > before.points
                   ? static_cast<double>(hits - before.hits) /
                         static_cast<double>(points - before.points)
                   : 0.0;
    }
};

DaemonStats
daemonStats(const Daemon &daemon)
{
    ServeClient client(daemon.socket());
    const std::string text = client.stats();
    DaemonStats stats;
    stats.hits = statsValue(text, "cache_hits");
    stats.points = statsValue(text, "points");
    stats.sheds = statsValue(text, "shed_conns") +
                  statsValue(text, "shed_requests");
    return stats;
}

double
workerRssMb(const Daemon &daemon)
{
    double peak = 0;
    for (pid_t worker : childPids(daemon.pid()))
        peak = std::max(peak, processPeakRssMb(worker));
    return peak;
}

std::string
describe(const std::vector<double> &samples, double tail)
{
    char buf[96];
    if (samplesBeyond(samples.size(), tail) < kMinBeyond) {
        std::snprintf(buf, sizeof(buf), "p50 %.3f ms (n=%zu)",
                      median(samples), samples.size());
    } else {
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        std::snprintf(buf, sizeof(buf), "p50 %.3f / p%g %.3f ms (n=%zu)",
                      median(samples), tail * 100,
                      sorted[percentileIndex(sorted.size(), tail)],
                      samples.size());
    }
    return buf;
}

RunResult
plainServe(const Options &opts)
{
    RunResult result;
    const Inputs in = makeInputs(opts);
    std::vector<double> setups(1);
    const std::unique_ptr<Daemon> daemon =
        startDaemon(opts, in, 0, setups[0]);

    std::vector<RequestMix> mixes = requestMixes(opts, in);
    const DaemonStats before = daemonStats(*daemon);
    // Each part follows one more set-up, of a daemon of its own (the
    // serving daemon idles meanwhile). Set-ups spread over the run
    // see the host in every state, so their median is steady.
    std::vector<Phase> parts;
    Phase phase;
    for (u32 part = 1; part <= kParts; part++) {
        double seconds = 0;
        startDaemon(opts, in, part, seconds)->shutdown();
        setups.push_back(seconds);
        parts.push_back(runPhase(*daemon, in, mixes,
                                 opts.seconds / kParts, enoughForOps,
                                 nullptr));
        phase.merge(parts.back());
    }
    const DaemonStats after = daemonStats(*daemon);
    u64 retries = 0;
    account(phase, result, retries);
    // The serving tier's memory: the daemon plus its workers.
    const double rss = processPeakRssMb(daemon->pid());
    double tree_rss = rss;
    for (pid_t worker : childPids(daemon->pid()))
        tree_rss += processPeakRssMb(worker);
    daemon->shutdown();

    const double rate = fasterPartRate(parts);
    std::map<std::string, double> &values = result.metrics;
    values["setup_s"] = median(setups);
    values["max_rss_mb"] = tree_rss;
    values["ops_per_s"] = rate;
    std::fprintf(
        stderr,
        "serve-mix: %.1f requests/s over the faster %u of %u parts "
        "(%.1f over %.2f s), setup %.3f s, daemon rss %.1f MiB, "
        "with workers %.1f MiB\n"
        "  all    %s\n  hit    %s\n  miss   %s\n  window %s\n"
        "  daemon hit ratio %.4f, retries %llu, sheds %llu, "
        "%llu/%llu requests failed\n",
        rate, (kParts + 1) / 2, kParts,
        static_cast<double>(phase.completed) / phase.seconds,
        phase.seconds, values["setup_s"], rss, tree_rss,
        describe(latencies(phase, RequestKind::Hot, true), 0.95).c_str(),
        describe(latencies(phase, RequestKind::Hot), 0.99).c_str(),
        describe(latencies(phase, RequestKind::Cold), 0.90).c_str(),
        describe(latencies(phase, RequestKind::Window), 0.90).c_str(),
        after.hitRatioSince(before),
        static_cast<unsigned long long>(retries),
        static_cast<unsigned long long>(after.sheds),
        static_cast<unsigned long long>(result.failed),
        static_cast<unsigned long long>(result.attempted));
    return result;
}

/** Median of one field over the traces of some request kinds. */
template <typename Field>
double
medianOf(const std::vector<RequestTrace> &traces,
         std::initializer_list<RequestKind> kinds, Field field)
{
    std::vector<double> values;
    for (const RequestTrace &t : traces) {
        if (std::find(kinds.begin(), kinds.end(), t.kind) != kinds.end())
            values.push_back(field(t));
    }
    return median(values);
}

double
sum(const std::vector<double> &values)
{
    double total = 0;
    for (double value : values)
        total += value;
    return total;
}

RunResult
tracedServe(const Options &opts)
{
    RunResult result;
    const Inputs in = makeInputs(opts);
    double setup = 0;
    const std::unique_ptr<Daemon> daemon = startDaemon(opts, in, 0, setup);
    // Forks the replay worker while this process has no threads.
    Replayer replayer(*daemon, opts.workDir + "/scratch-cache");

    std::vector<RequestMix> mixes = requestMixes(opts, in);
    // Untraced: the request rate, the hit ratio and every latency
    // percentile, free of the replays' load.
    const DaemonStats before = daemonStats(*daemon);
    const Phase plain = runPhase(*daemon, in, mixes, opts.seconds / 2,
                                 enoughForClasses, nullptr);
    const DaemonStats after_plain = daemonStats(*daemon);
    // Traced: every request's daemon-side steps, replayed under spans.
    const Phase traced = runPhase(*daemon, in, mixes, opts.seconds,
                                  enoughForMedians, &replayer);
    const DaemonStats after = daemonStats(*daemon);
    u64 retries = 0;
    account(plain, result, retries);
    account(traced, result, retries);
    const double worker_rss = workerRssMb(*daemon);
    daemon->shutdown();

    std::vector<RequestTrace> traces;
    SpanLog spans;
    for (const ClientLog &client : traced.clients) {
        traces.insert(traces.end(), client.traces.begin(),
                      client.traces.end());
        spans.merge(client.spans);
    }
    std::vector<double> lookups, jobs, ipc, publishes, wait_shares;
    double windows = 0, blocks = 0;
    for (const RequestTrace &t : traces) {
        if (t.kind == RequestKind::Window) {
            windows++;
            blocks += static_cast<double>(t.blocks);
        }
        lookups.insert(lookups.end(), t.lookups.begin(), t.lookups.end());
        jobs.insert(jobs.end(), t.jobs.begin(), t.jobs.end());
        publishes.insert(publishes.end(), t.publishes.begin(),
                         t.publishes.end());
        for (size_t i = 0; i < t.jobs.size(); i++)
            ipc.push_back(t.jobs[i] - t.inproc.at(i));
        if (t.kind == RequestKind::Cold) {
            wait_shares.push_back(unattributedShare(
                t.latency, t.connect + t.ping + t.protocol + t.validate +
                               sum(t.jobs) + sum(t.publishes) +
                               t.report));
        }
    }
    const auto hot = {RequestKind::Hot};
    const auto sweeps = {RequestKind::Hot, RequestKind::Cold};
    const double hit_latency =
        medianOf(traces, hot, [](const auto &t) { return t.latency; });
    const double connect =
        medianOf(traces, hot, [](const auto &t) { return t.connect; });
    const double ping =
        medianOf(traces, hot, [](const auto &t) { return t.ping; });
    const double protocol =
        medianOf(traces, hot, [](const auto &t) { return t.protocol; });
    const double validate =
        medianOf(traces, sweeps, [](const auto &t) { return t.validate; });
    const double report =
        medianOf(traces, sweeps, [](const auto &t) { return t.report; });
    const double lookup = median(lookups);

    std::map<std::string, double> &values = result.metrics;
    values["serve.connect_us"] = connect * 1e6;
    values["serve.ping_us"] = ping * 1e6;
    values["serve.protocol_us"] = protocol * 1e6;
    values["serve.validate_us"] = validate * 1e6;
    values["serve.cache.lookup_us"] = lookup * 1e6;
    values["serve.report_us"] = report * 1e6;
    values["serve.hit_unattributed_share"] = unattributedShare(
        hit_latency, connect + ping + protocol + validate +
                         static_cast<double>(kArchs.size()) * lookup +
                         report);
    values["serve.pool.job_ms"] = median(jobs) * 1e3;
    values["serve.pool.ipc_ms"] = median(ipc) * 1e3;
    values["serve.cache.publish_ms"] = median(publishes) * 1e3;
    values["serve.miss_wait_share"] = median(wait_shares);
    values["store.window_us"] =
        medianOf(traces, {RequestKind::Window},
                 [](const auto &t) { return t.window; }) *
        1e6;
    values["store.blocks_per_window"] = windows ? blocks / windows : 0;
    values["serve.hit_ratio"] = after_plain.hitRatioSince(before);
    values["serve.worker_rss_mb"] = worker_rss;
    const auto hit_ms = latencies(plain, RequestKind::Hot);
    const auto miss_ms = latencies(plain, RequestKind::Cold);
    const auto window_ms = latencies(plain, RequestKind::Window);
    values["serve.hit_ms_p50"] = guardedPercentile(hit_ms, 0.50, "hit");
    values["serve.hit_ms_p99"] = guardedPercentile(hit_ms, 0.99, "hit");
    values["serve.miss_ms_p50"] =
        guardedPercentile(miss_ms, 0.50, "miss");
    values["serve.miss_ms_p90"] =
        guardedPercentile(miss_ms, 0.90, "miss");
    values["serve.window_ms_p50"] =
        guardedPercentile(window_ms, 0.50, "window");
    values["serve.window_ms_p90"] =
        guardedPercentile(window_ms, 0.90, "window");
    values["serve.client_retries"] = static_cast<double>(retries);
    values["serve.daemon_sheds"] = static_cast<double>(after.sheds);
    // Time per request, traced over untraced.
    values["bench.trace_overhead_share"] =
        (static_cast<double>(plain.completed) / plain.seconds) /
            (static_cast<double>(traced.completed) / traced.seconds) -
        1;

    if (!opts.spansPath.empty())
        writeSpans(spans.spans(), opts.spansPath);
    std::fprintf(stderr,
                 "serve-mix untraced latency:\n"
                 "  hit    %s\n  miss   %s\n  window %s\n"
                 "serve-mix traced: %zu replayed requests, hit "
                 "unattributed %.3f, miss wait %.3f, retries %llu, "
                 "sheds %llu, %llu/%llu requests failed\n",
                 describe(hit_ms, 0.99).c_str(),
                 describe(miss_ms, 0.90).c_str(),
                 describe(window_ms, 0.90).c_str(), traces.size(),
                 values["serve.hit_unattributed_share"],
                 values["serve.miss_wait_share"],
                 static_cast<unsigned long long>(retries),
                 static_cast<unsigned long long>(after.sheds),
                 static_cast<unsigned long long>(result.failed),
                 static_cast<unsigned long long>(result.attempted));
    return result;
}

} // namespace

RunResult
runServeBench(const Options &opts)
{
    if (opts.workload != "serve-mix")
        fatal("unknown serve workload '", opts.workload, "'");
    if (opts.icicled.empty())
        fatal("serve-mix needs --icicled");
    return opts.trace ? tracedServe(opts) : plainServe(opts);
}

} // namespace perfbench
