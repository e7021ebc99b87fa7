#include "serve/server.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "fault/fault.hh"

namespace icicle
{

namespace
{

/** Retry-after hint carried in Overloaded replies, and the queue
 * gate's grace-wait bound. */
constexpr u32 kRetryAfterMs = 50;

/**
 * Consecutive cache-publish failures before the daemon flips to
 * degraded compute-only serving (results still correct, nothing
 * memoised; `degraded: 1` in stats).
 */
constexpr u32 kDegradedAfter = 3;

} // namespace

IcicleServer::IcicleServer(const ServerOptions &options)
    : opts(options), cache(options.cacheDir),
      // The pool constructor forks: it must run before listenFd
      // exists and before run() spawns connection threads.
      pool(options.shards, options.jobTimeoutMs)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts.socketPath.empty() ||
        opts.socketPath.size() >= sizeof(addr.sun_path))
        fatal("socket path '", opts.socketPath,
              "' is empty or too long for a Unix socket");
    std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    // A stale socket file from a killed daemon would make bind fail,
    // but blindly unlinking would steal a live daemon's path (it
    // keeps running, unreachable, and its destructor would later
    // remove OUR socket). Probe first: only a path nobody answers on
    // is a corpse we may reclaim.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0)
        fatal("cannot create probe socket: ", errnoText(errno));
    if (::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0) {
        ::close(probe);
        fatal("a daemon is already serving '", opts.socketPath,
              "'; shut it down or pass a different --socket");
    }
    const int probe_errno = errno;
    ::close(probe);
    if (probe_errno == ECONNREFUSED) {
        std::error_code ec;
        std::filesystem::remove(opts.socketPath, ec);
    } else if (probe_errno != ENOENT) {
        fatal("cannot probe existing socket '", opts.socketPath,
              "': ", errnoText(probe_errno));
    }

    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        fatal("cannot create server socket: ",
              errnoText(errno));
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("cannot bind '", opts.socketPath,
              "': ", errnoText(errno));
    if (::listen(listenFd, 128) != 0)
        fatal("cannot listen on '", opts.socketPath,
              "': ", errnoText(errno));
}

IcicleServer::~IcicleServer()
{
    stop();
    waitForClients();
    if (listenFd >= 0)
        ::close(listenFd);
    std::error_code ec;
    std::filesystem::remove(opts.socketPath, ec);
}

void
IcicleServer::waitForClients()
{
    // An explicit wait loop, not a predicate lambda: the analysis
    // can see `liveClients` is read with connMutex held here.
    UniqueLock lock(connMutex);
    while (liveClients != 0)
        connCv.wait(lock);
}

void
IcicleServer::stop()
{
    if (stopping.exchange(true))
        return;
    // shutdown() (not close) wakes the blocked accept() reliably.
    if (listenFd >= 0)
        ::shutdown(listenFd, SHUT_RDWR);
}

void
IcicleServer::run()
{
    for (;;) {
        const int cfd = ::accept(listenFd, nullptr, nullptr);
        if (cfd < 0) {
            if (errno == EINTR && !stopping.load())
                continue;
            break;
        }
        // Injected connection reset: the peer sees EOF with no
        // reply, exactly like a daemon crash between accept and
        // read.
        if (faultPlan().onAccept()) {
            ::close(cfd);
            continue;
        }
        // Admission gate, stage 1: in-flight connection cap. Shedding
        // here costs one small frame write from the accept thread —
        // cheap enough that an overloaded daemon still answers every
        // knock with an explicit retry hint.
        bool shed = false;
        {
            LockGuard lock(connMutex);
            if (opts.maxConns != 0 && liveClients >= opts.maxConns)
                shed = true;
            else
                liveClients++;
        }
        if (shed) {
            stats.add(ServeStat::ShedConns);
            sendOverloaded(cfd, "conns");
            ::close(cfd);
            continue;
        }
        // Detached: a joinable-but-finished thread keeps its stack
        // mapped until joined, which under connection churn is an
        // unbounded leak. The count/condvar pair replaces join; the
        // decrement+notify (under the mutex) is the thread's last
        // touch of the server.
        std::thread([this, cfd] {
            handleClient(cfd);
            LockGuard lock(connMutex);
            liveClients--;
            connCv.notifyAll();
        }).detach();
    }
    waitForClients();
}

void
IcicleServer::handleClient(int fd)
{
    for (;;) {
        // Injected read stall: the reply (and any response the peer
        // awaits) is delayed past its deadline.
        if (const u64 stall_ms = faultPlan().onConnRead()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(stall_ms));
        }
        MsgType type;
        std::string payload;
        const FrameRead got =
            readFrameDeadline(fd, type, payload, opts.idleTimeoutMs);
        // Corrupt framing means the rest of the stream cannot be
        // trusted: drop the connection, never resynchronize. A
        // deadline miss (idle or byte-trickling peer) drops it too,
        // reclaiming the thread.
        if (got != FrameRead::Ok)
            break;
        stats.add(ServeStat::Requests);
        if (!dispatch(fd, type, payload))
            break;
        if (stopping.load())
            break;
    }
    ::close(fd);
}

bool
IcicleServer::dispatch(int fd, MsgType type,
                       const std::string &payload)
{
    switch (type) {
      case MsgType::Ping:
        return sendReply(fd, MsgType::Pong, payload);
      case MsgType::SweepRequest:
        handleSweep(fd, payload);
        return true;
      case MsgType::WindowTmaRequest:
        handleWindow(fd, payload);
        return true;
      case MsgType::StatsRequest:
        handleStats(fd);
        return true;
      case MsgType::Shutdown:
        sendReply(fd, MsgType::ShutdownAck, "");
        stop();
        return false;
      default:
        sendError(fd, std::string("unexpected ") +
                          msgTypeName(type) + " frame");
        return false;
    }
}

void
IcicleServer::sendError(int fd, const std::string &message)
{
    stats.add(ServeStat::Errors);
    sendReply(fd, MsgType::Error, message);
}

bool
IcicleServer::sendReply(int fd, MsgType type,
                        const std::string &payload)
{
    FaultPlan &plan = faultPlan();
    // Injected write stall first: the reply is late but intact.
    if (const u64 stall_ms = plan.onConnWrite()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stall_ms));
    }
    switch (plan.onReply()) {
      case FaultPlan::ReplyAction::Reset:
        // Drop the reply on the floor; the caller drops the
        // connection, so the peer sees EOF mid-exchange.
        return false;
      case FaultPlan::ReplyAction::Torn: {
        // Half a frame, then EOF: the peer's CRC/short-read checks
        // must reject it, never deliver a partial payload.
        const std::string frame = encodeFrame(type, payload);
        writeRaw(fd, frame, frame.size() / 2);
        return false;
      }
      case FaultPlan::ReplyAction::None:
        break;
    }
    return writeFrame(fd, type, payload);
}

void
IcicleServer::sendOverloaded(int fd, const std::string &reason)
{
    OverloadNotice notice;
    notice.retryAfterMs = kRetryAfterMs;
    notice.reason = reason;
    // Deliberately not sendReply: shed notices must not consume
    // reply-fault ordinals, or load timing would perturb a seeded
    // schedule's targeting of real replies.
    writeFrame(fd, MsgType::Overloaded,
               encodeOverloadNotice(notice));
}

IcicleServer::Flight
IcicleServer::beginFlight(u64 run)
{
    const u64 cap = u64{opts.maxQueue} * pool.size();
    UniqueLock lock(flightsMutex);
    if (opts.maxQueue != 0 && missRuns >= cap) {
        // One bounded grace wait absorbs a momentary burst; a gate
        // still full afterwards is genuine overload and the request
        // is shed.
        flightsCv.waitFor(lock, kRetryAfterMs);
        if (missRuns >= cap)
            return Flight::Shed;
    }
    missRuns++;
    bool waited = false;
    while (flights.contains(run)) {
        waited = true;
        flightsCv.wait(lock);
    }
    flights.insert(run);
    return waited ? Flight::Waited : Flight::Led;
}

void
IcicleServer::endFlight(u64 run)
{
    LockGuard lock(flightsMutex);
    flights.erase(run);
    missRuns--;
    flightsCv.notifyAll();
}

void
IcicleServer::publishGuarded(const ServeKey &key,
                             const SweepResult &result, size_t points)
{
    if (degraded.load(std::memory_order_relaxed)) {
        stats.add(ServeStat::DegradedPoints, points);
        return;
    }
    try {
        cache.publish(key, result);
        publishStrikes.store(0, std::memory_order_relaxed);
    } catch (const FatalError &err) {
        stats.add(ServeStat::PublishFailures);
        const u32 strikes =
            publishStrikes.fetch_add(1, std::memory_order_relaxed) +
            1;
        if (strikes >= kDegradedAfter &&
            !degraded.exchange(true)) {
            warn("cache publication failed ", strikes,
                 " times in a row (", err.what(),
                 "); serving compute-only (degraded)");
        }
    }
}

bool
IcicleServer::runResults(std::span<const SweepPoint> run, u64 seed,
                         std::span<SweepResult> results, bool &hit,
                         bool &shed, std::string &error)
{
    shed = false;
    const ServeKey key = serveCacheKey(run[0], seed);
    SweepResult result;
    hit = cache.lookup(key, result);
    if (!hit) {
        // beginFlight reserves a miss-path slot before waiting on a
        // flight or a worker (admission gate, stage 2), so saturation
        // becomes an explicit shed instead of an unbounded queue.
        // Single-flight per run: a request that finds the run in
        // flight waits for that flight to end (after its publish),
        // then re-checks here. The leader re-checks too: a flight may
        // have ended between its lookup and its claim.
        const Flight flight = beginFlight(key.hash);
        if (flight == Flight::Shed) {
            shed = true;
            return false;
        }
        if (flight == Flight::Waited)
            stats.add(ServeStat::FlightWaits);
        hit = cache.lookup(key, result);
        bool job_ok = true;
        if (!hit) {
            JobReply reply;
            std::string job_error;
            bool waited = false;
            // The run's hash picks its preferred worker; any idle
            // worker takes the job when that one is busy.
            const bool ran = pool.runJob(
                static_cast<u32>(key.hash % pool.size()),
                JobRequest{run[0], seed}, reply, job_error, &waited);
            if (waited)
                stats.add(ServeStat::WorkerWaits);
            if (!ran || !reply.ok) {
                error = job_error.empty() ? reply.error : job_error;
                job_ok = false;
            } else {
                result = reply.result;
                // Only Ok results are memoised: failures and timeouts
                // must re-run, not stick. Publication failures degrade
                // to compute-only, never error the request (the
                // result in hand is still correct).
                if (result.status == SweepStatus::Ok)
                    publishGuarded(key, result, run.size());
            }
        }
        endFlight(key.hash);
        if (!job_ok)
            return false;
    }
    // One result is every architecture's row. The codec carries
    // neither label nor point: rederive them, like the journal's
    // resume path does from its grid.
    for (size_t i = 0; i < run.size(); i++) {
        results[i] = result;
        results[i].point = run[i];
        results[i].label = sweepPointLabel(run[i]);
    }
    return true;
}

void
IcicleServer::handleSweep(int fd, const std::string &payload)
{
    stats.add(ServeStat::SweepRequests);
    SweepQuery query;
    if (!decodeSweepQuery(payload, query)) {
        sendError(fd, "malformed sweep request");
        return;
    }
    if (query.cores.empty() || query.workloads.empty() ||
        query.archs.empty()) {
        sendError(fd, "sweep request selects an empty grid");
        return;
    }
    if (!isSweepFormat(query.format)) {
        sendError(fd, "unknown format: " + query.format);
        return;
    }
    // Expand exactly like icicle-sweep: same GridSpec, same
    // row-major order, so rows land in the same sequence.
    GridSpec grid;
    grid.cores = query.cores;
    grid.workloads = query.workloads;
    grid.counterArchs = query.archs;
    grid.maxCycles = query.maxCycles;
    grid.withTrace = false;
    // Check axis names up front (the CLI does the same), building
    // nothing: a typo is one Error reply, not a grid of Failed rows.
    try {
        checkGridNames(grid);
    } catch (const FatalError &err) {
        sendError(fd, err.what());
        return;
    }
    const std::vector<SweepPoint> points = grid.expand();

    SweepReply reply;
    reply.points = static_cast<u32>(points.size());
    std::vector<SweepResult> results(points.size());
    // One run at a time: counter architectures expand innermost, so
    // a run is the adjacent points of one (core, workload).
    for (size_t begin = 0; begin < points.size();) {
        size_t end = begin + 1;
        while (end < points.size() &&
               points[end].core == points[begin].core &&
               points[end].workload == points[begin].workload)
            end++;
        bool hit = false;
        bool shed = false;
        std::string error;
        if (!runResults(
                std::span(points).subspan(begin, end - begin),
                query.seed,
                std::span(results).subspan(begin, end - begin), hit,
                shed, error)) {
            if (shed) {
                // Not an error: the daemon is saturated. Runs
                // already served stay cached, so retrying the whole
                // (deterministic, content-addressed) query is safe
                // and cheap.
                stats.add(ServeStat::ShedRequests);
                sendOverloaded(fd, "queue");
            } else {
                sendError(fd, error);
            }
            return;
        }
        (hit ? reply.cacheHits : reply.simulated) +=
            static_cast<u32>(end - begin);
        for (size_t i = begin; i < end; i++) {
            results[i].index = i;
            stats.countPoint(hit);
            reply.allOk &= results[i].status == SweepStatus::Ok;
        }
        begin = end;
    }

    // timing=false always: wall-times are nondeterministic and would
    // break both caching and byte-identity with the CLI.
    reply.report = formatSweepReport(results, query.format, false);

    sendReply(fd, MsgType::SweepResponse, encodeSweepReply(reply));
}

std::shared_ptr<const StoreReader>
IcicleServer::readerFor(const std::string &path)
{
    // Stat before opening: a file replaced between the two leaves an
    // older identity on the newer reader, which only costs one more
    // reopen at the next query — never a stale answer.
    StoreFileId file;
    struct stat st;
    const bool exists = ::stat(path.c_str(), &st) == 0;
    if (exists) {
        file = {static_cast<u64>(st.st_dev), static_cast<u64>(st.st_ino),
                static_cast<u64>(st.st_size),
                static_cast<u64>(st.st_mtim.tv_sec) * 1'000'000'000 +
                    static_cast<u64>(st.st_mtim.tv_nsec)};
    }
    LockGuard lock(readersMutex);
    // A deleted store's reader would otherwise keep its fd open until
    // a new store appears at the path; the reopen below reports the
    // error.
    if (!exists)
        readers.erase(path);
    auto it = readers.find(path);
    if (it == readers.end() || it->second.file != file) {
        OpenStore open{file, std::make_shared<StoreReader>(path)};
        it = readers.insert_or_assign(path, std::move(open)).first;
    }
    return it->second.reader;
}

void
IcicleServer::handleWindow(int fd, const std::string &payload)
{
    stats.add(ServeStat::WindowRequests);
    WindowQuery query;
    if (!decodeWindowQuery(payload, query)) {
        sendError(fd, "malformed window-tma request");
        return;
    }
    try {
        const std::shared_ptr<const StoreReader> reader =
            readerFor(query.storePath);
        WindowReply reply;
        reply.tma = reader->windowTma(query.begin, query.end,
                                      query.coreWidth);
        reply.blocksDecoded = reader->blocksDecoded();
        sendReply(fd, MsgType::WindowTmaResponse,
                  encodeWindowReply(reply));
    } catch (const FatalError &err) {
        sendError(fd, err.what());
    }
}

std::string
IcicleServer::statsText()
{
    const ServeStats::Snapshot snap = stats.snapshot();
    std::ostringstream os;
    for (size_t i = 0; i < kServeStatCount; i++)
        os << kServeStatNames[i] << ": " << snap.values[i] << "\n";
    os << "degraded: " << (degraded.load() ? 1 : 0) << "\n"
       << "max_conns: " << opts.maxConns << "\n"
       << "max_queue: " << opts.maxQueue << "\n"
       << "worker_restarts: " << pool.restarts() << "\n"
       << "worker_jobs: " << pool.jobs() << "\n"
       << "shards: " << pool.size() << "\n"
       << "cache_entries: " << cache.entriesOnDisk() << "\n";
    return os.str();
}

void
IcicleServer::handleStats(int fd)
{
    sendReply(fd, MsgType::StatsResponse, statsText());
}

} // namespace icicle
