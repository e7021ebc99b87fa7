/**
 * @file
 * icicled serve subsystem tests: wire-protocol round trips and
 * corruption rejection, cache key identity, crash-safe cache
 * publish/lookup, and an in-process daemon end-to-end drill pinning
 * the headline guarantee — a cached reply is byte-identical to the
 * first (simulated) reply.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/lockorder.hh"
#include "common/logging.hh"
#include "common/sync.hh"
#include "common/wire.hh"
#include "fault/fault.hh"
#include "serve/cache.hh"
#include "serve/chaos.hh"
#include "serve/client.hh"
#include "serve/pool.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "store/store.hh"
#include "sweep/journal.hh"
#include "sweep/sweep.hh"
#include "workloads/workloads.hh"

namespace icicle
{
namespace
{

class TempDir
{
  public:
    explicit TempDir(const char *name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    const std::string path;
};

/** One real simulated result: small enough to run per-test. */
SweepResult
simulatedResult()
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"vvadd"};
    grid.counterArchs = {CounterArch::AddWires};
    grid.maxCycles = 200'000;
    const std::vector<SweepResult> results =
        runSweep(grid, SweepOptions{});
    EXPECT_EQ(results.size(), 1u);
    EXPECT_EQ(results.at(0).status, SweepStatus::Ok);
    return results.at(0);
}

constexpr CounterArch kAllArchs[] = {
    CounterArch::Scalar, CounterArch::AddWires, CounterArch::Distributed};

/**
 * The results a worker sends for one 3-arch job: a rocket/vvadd grid
 * over every counter architecture, each with index 0.
 */
std::vector<SweepResult>
simulatedRun()
{
    GridSpec grid;
    grid.cores = {"rocket"};
    grid.workloads = {"vvadd"};
    grid.counterArchs = {std::begin(kAllArchs), std::end(kAllArchs)};
    grid.maxCycles = 200'000;
    std::vector<SweepResult> results = runSweep(grid, SweepOptions{});
    EXPECT_EQ(results.size(), 3u);
    for (SweepResult &result : results)
        result.index = 0;
    return results;
}

/** The CSV icicle-sweep prints for `query`'s grid. */
std::string
directCsv(const SweepQuery &query)
{
    GridSpec grid;
    grid.cores = query.cores;
    grid.workloads = query.workloads;
    grid.counterArchs = query.archs;
    grid.maxCycles = query.maxCycles;
    return formatSweepCsv(runSweep(grid, SweepOptions{}), false);
}

/** An in-process daemon (two workers) serving until destroyed. */
class LiveDaemon
{
  public:
    LiveDaemon(const std::string &socket, const std::string &cache)
        : server(optionsFor(socket, cache)),
          thread([this] { server.run(); })
    {}
    ~LiveDaemon()
    {
        server.stop();
        thread.join();
    }

    LiveDaemon(const LiveDaemon &) = delete;
    LiveDaemon &operator=(const LiveDaemon &) = delete;

  private:
    static ServerOptions
    optionsFor(const std::string &socket, const std::string &cache)
    {
        ServerOptions options;
        options.socketPath = socket;
        options.cacheDir = cache;
        options.shards = 2;
        return options;
    }

    IcicleServer server;
    std::thread thread;
};

/** Every file in a cache directory: name -> bytes. */
std::map<std::string, std::string>
cacheFiles(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        files[entry.path().filename().string()] =
            std::string(std::istreambuf_iterator<char>(in), {});
    }
    return files;
}

TEST(ServeProtocol, SweepQueryRoundTrip)
{
    SweepQuery query;
    query.cores = {"rocket", "boom-large"};
    query.workloads = {"vvadd", "qsort", "towers"};
    query.archs = {CounterArch::Scalar, CounterArch::Distributed};
    query.maxCycles = 123'456'789;
    query.seed = 0xdeadbeefcafe;
    query.format = "csv";

    SweepQuery decoded;
    ASSERT_TRUE(decodeSweepQuery(encodeSweepQuery(query), decoded));
    EXPECT_EQ(decoded.cores, query.cores);
    EXPECT_EQ(decoded.workloads, query.workloads);
    EXPECT_EQ(decoded.archs, query.archs);
    EXPECT_EQ(decoded.maxCycles, query.maxCycles);
    EXPECT_EQ(decoded.seed, query.seed);
    EXPECT_EQ(decoded.format, query.format);
}

TEST(ServeProtocol, ReplyRoundTrips)
{
    SweepReply reply;
    reply.report = "core,workload\nrocket,vvadd\n";
    reply.points = 7;
    reply.cacheHits = 3;
    reply.simulated = 4;
    reply.allOk = false;

    SweepReply sweep_decoded;
    ASSERT_TRUE(
        decodeSweepReply(encodeSweepReply(reply), sweep_decoded));
    EXPECT_EQ(sweep_decoded.report, reply.report);
    EXPECT_EQ(sweep_decoded.points, reply.points);
    EXPECT_EQ(sweep_decoded.cacheHits, reply.cacheHits);
    EXPECT_EQ(sweep_decoded.simulated, reply.simulated);
    EXPECT_EQ(sweep_decoded.allOk, reply.allOk);

    WindowQuery window;
    window.storePath = "/tmp/some/store.icst";
    window.begin = 1'000;
    window.end = 2'000'000;
    window.coreWidth = 4;
    WindowQuery window_decoded;
    ASSERT_TRUE(decodeWindowQuery(encodeWindowQuery(window),
                                  window_decoded));
    EXPECT_EQ(window_decoded.storePath, window.storePath);
    EXPECT_EQ(window_decoded.begin, window.begin);
    EXPECT_EQ(window_decoded.end, window.end);
    EXPECT_EQ(window_decoded.coreWidth, window.coreWidth);
}

TEST(ServeProtocol, JobMessagesCarryBitExactResults)
{
    JobRequest request;
    request.point.core = "rocket";
    request.point.workload = "vvadd";
    request.point.maxCycles = 200'000;
    request.seed = 42;
    JobRequest request_decoded;
    ASSERT_TRUE(decodeJobRequest(encodeJobRequest(request),
                                 request_decoded));
    EXPECT_EQ(request_decoded.point.core, request.point.core);
    EXPECT_EQ(request_decoded.point.workload,
              request.point.workload);
    EXPECT_EQ(request_decoded.point.maxCycles,
              request.point.maxCycles);
    EXPECT_EQ(request_decoded.point.withTrace,
              request.point.withTrace);
    EXPECT_EQ(request_decoded.seed, request.seed);

    // The reply embeds the journal result codec; the decoded result
    // must re-encode to the same bytes (bit-exact doubles included).
    JobReply reply;
    reply.ok = true;
    reply.result = simulatedResult();
    JobReply reply_decoded;
    ASSERT_TRUE(decodeJobReply(encodeJobReply(reply),
                               reply_decoded));
    EXPECT_TRUE(reply_decoded.ok);
    EXPECT_EQ(encodeSweepResult(reply_decoded.result),
              encodeSweepResult(reply.result));
}

TEST(ServeProtocol, JobFramesNameARunAndCarryOneResult)
{
    // The job layout written out by hand: the run's fields and the
    // seed, with no counter architecture.
    std::string job;
    wire::putStr(job, "rocket");
    wire::putStr(job, "vvadd");
    wire::put64(job, 200'000);
    wire::put8(job, 0);
    wire::put64(job, 9);
    JobRequest request;
    request.point.core = "rocket";
    request.point.workload = "vvadd";
    request.point.maxCycles = 200'000;
    request.seed = 9;
    ASSERT_EQ(encodeJobRequest(request), job);

    // Every architecture of the run encodes to the same frame.
    for (CounterArch arch : kAllArchs) {
        JobRequest other = request;
        other.point.counterArch = arch;
        EXPECT_EQ(encodeJobRequest(other), job);
    }

    // A trailing byte is not full consumption.
    JobRequest decoded;
    EXPECT_TRUE(decodeJobRequest(job, decoded));
    EXPECT_FALSE(decodeJobRequest(job + '\0', decoded));

    // A reply carries exactly one result: one more is rejected.
    JobReply reply;
    reply.ok = true;
    reply.result = simulatedResult();
    std::string two = encodeJobReply(reply);
    wire::putStr(two, encodeSweepResult(reply.result));
    JobReply reply_decoded;
    EXPECT_FALSE(decodeJobReply(two, reply_decoded));
}

TEST(ServeProtocol, TruncatedPayloadsNeverDecode)
{
    // Every strict prefix of a valid payload must be rejected: the
    // decoders bounds-check every read and demand full consumption,
    // so a torn buffer can never alias a shorter valid message.
    SweepQuery query;
    query.cores = {"rocket"};
    query.workloads = {"vvadd", "qsort"};
    query.format = "json";
    const std::string encoded = encodeSweepQuery(query);
    for (size_t len = 0; len < encoded.size(); len++) {
        SweepQuery decoded;
        EXPECT_FALSE(
            decodeSweepQuery(encoded.substr(0, len), decoded))
            << "prefix of length " << len << " decoded";
    }

    JobRequest request;
    request.point.core = "rocket";
    request.point.workload = "vvadd";
    request.seed = 3;
    const std::string request_bytes = encodeJobRequest(request);
    for (size_t len = 0; len < request_bytes.size(); len++) {
        JobRequest decoded;
        EXPECT_FALSE(
            decodeJobRequest(request_bytes.substr(0, len), decoded))
            << "prefix of length " << len << " decoded";
    }

    JobReply reply;
    reply.ok = true;
    reply.result = simulatedResult();
    const std::string reply_bytes = encodeJobReply(reply);
    for (size_t len = 0; len < reply_bytes.size(); len++) {
        JobReply decoded;
        EXPECT_FALSE(decodeJobReply(reply_bytes.substr(0, len), decoded))
            << "prefix of length " << len << " decoded";
    }
}

TEST(ServeProtocol, OverloadNoticeRoundTripsAndRejectsTornPrefixes)
{
    OverloadNotice notice;
    notice.retryAfterMs = 75;
    notice.reason = "queue";
    const std::string encoded = encodeOverloadNotice(notice);

    OverloadNotice decoded;
    ASSERT_TRUE(decodeOverloadNotice(encoded, decoded));
    EXPECT_EQ(decoded.retryAfterMs, notice.retryAfterMs);
    EXPECT_EQ(decoded.reason, notice.reason);

    // Shed notices ride the same torn-frame-prone wire as every
    // other reply: every strict prefix must be rejected, never
    // misread as a shorter valid notice.
    for (size_t len = 0; len < encoded.size(); len++) {
        OverloadNotice torn;
        EXPECT_FALSE(
            decodeOverloadNotice(encoded.substr(0, len), torn))
            << "prefix of length " << len << " decoded";
    }
    // Trailing garbage is not full consumption either.
    OverloadNotice padded;
    EXPECT_FALSE(decodeOverloadNotice(encoded + "x", padded));
}

TEST(ServeProtocol, FramesRoundTripAndCorruptionIsDetected)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    ASSERT_TRUE(writeFrame(fds[1], MsgType::Ping, "hello"));
    MsgType type;
    std::string payload;
    EXPECT_EQ(readFrame(fds[0], type, payload), FrameRead::Ok);
    EXPECT_EQ(type, MsgType::Ping);
    EXPECT_EQ(payload, "hello");

    // A peer that closes cleanly between frames reads as Eof...
    ::close(fds[1]);
    EXPECT_EQ(readFrame(fds[0], type, payload), FrameRead::Eof);
    ::close(fds[0]);

    // ...while garbage where the magic belongs is a hard Error.
    ASSERT_EQ(::pipe(fds), 0);
    const char garbage[] = "this is not a frame at all........";
    ASSERT_EQ(::write(fds[1], garbage, sizeof garbage),
              static_cast<ssize_t>(sizeof garbage));
    ::close(fds[1]);
    EXPECT_EQ(readFrame(fds[0], type, payload), FrameRead::Error);
    ::close(fds[0]);

    // A flipped payload bit fails the CRC even with intact framing.
    ASSERT_EQ(::pipe(fds), 0);
    {
        int capture[2];
        ASSERT_EQ(::pipe(capture), 0);
        ASSERT_TRUE(writeFrame(capture[1], MsgType::Ping, "hello"));
        ::close(capture[1]);
        std::string raw(64, '\0');
        const ssize_t got = ::read(capture[0], raw.data(),
                                   raw.size());
        ASSERT_GT(got, 0);
        raw.resize(static_cast<size_t>(got));
        ::close(capture[0]);
        raw[raw.size() - 5] ^= 0x01; // last payload byte
        ASSERT_EQ(::write(fds[1], raw.data(), raw.size()),
                  static_cast<ssize_t>(raw.size()));
        ::close(fds[1]);
    }
    EXPECT_EQ(readFrame(fds[0], type, payload), FrameRead::Error);
    ::close(fds[0]);
}

TEST(ServeCache, KeyIsDeterministicAndCoversEveryAxis)
{
    SweepPoint point;
    point.core = "rocket";
    point.workload = "vvadd";
    point.counterArch = CounterArch::AddWires;
    point.maxCycles = 1'000'000;

    const ServeKey key = serveCacheKey(point, 7);
    EXPECT_EQ(serveCacheKey(point, 7).hash, key.hash);
    EXPECT_EQ(serveCacheKey(point, 7).blob, key.blob);

    // Every field that can change the result must change the blob
    // (the authoritative identity) and, in practice, the hash. The
    // counter architecture cannot: the key names the run.
    const auto differs = [&](const SweepPoint &p, u64 seed) {
        const ServeKey other = serveCacheKey(p, seed);
        EXPECT_NE(other.blob, key.blob);
        EXPECT_NE(other.hash, key.hash);
    };
    SweepPoint other = point;
    other.core = "boom-large";
    differs(other, 7);
    other = point;
    other.workload = "qsort";
    differs(other, 7);
    other = point;
    other.counterArch = CounterArch::Distributed;
    EXPECT_EQ(serveCacheKey(other, 7).blob, key.blob);
    other = point;
    other.maxCycles = 2'000'000;
    differs(other, 7);
    other = point;
    other.withTrace = true;
    differs(other, 7);
    differs(point, 8);
}

TEST(ServeCache, EveryArchOfARunRoutesToOneShard)
{
    // A run is one cache entry, one flight and one job, and its key's
    // hash picks the preferred worker, so every architecture must
    // derive the same key — for every core config, workload and seed
    // — while distinct runs still spread.
    const std::vector<std::string> cores = sweepCoreNames();
    ASSERT_EQ(cores.size(), 6u);
    std::set<u64> runs;
    std::set<u64> shards_hit;
    for (const std::string &core : cores) {
        for (const char *workload :
             {"vvadd", "towers", "qsort", "dhrystone"}) {
            for (u64 seed : {0ull, 1ull, 7ull, 0xdeadbeefcafeull}) {
                SweepPoint point;
                point.core = core;
                point.workload = workload;
                point.maxCycles = 400'000;
                const ServeKey run = serveCacheKey(point, seed);
                for (CounterArch arch : kAllArchs) {
                    point.counterArch = arch;
                    const ServeKey key = serveCacheKey(point, seed);
                    EXPECT_EQ(key.blob, run.blob)
                        << sweepPointLabel(point) << " seed " << seed;
                    EXPECT_EQ(key.hash, run.hash);
                }
                runs.insert(run.hash);
                shards_hit.insert(run.hash % 4);
            }
        }
    }
    EXPECT_EQ(runs.size(), 6u * 4 * 4);
    EXPECT_EQ(shards_hit.size(), 4u);
}

TEST(ServeCache, HashCollisionsDegradeToMisses)
{
    TempDir dir("serve_cache_collision");
    ResultCache cache(dir.path);
    const SweepResult result = simulatedResult();
    const ServeKey key = serveCacheKey(result.point, 0);
    cache.publish(key, result);

    // Forge a different point whose blob lands on the same file
    // name. The double-CRC32 scheme this replaced had only 32 bits
    // of entropy (hi was a function of lo) and trivially
    // constructible collisions; with the blob embedded in the entry
    // and byte-compared on lookup, even a perfect hash collision is
    // a miss, never the other point's result.
    ServeKey collider = serveCacheKey(result.point, 1);
    ASSERT_NE(collider.blob, key.blob);
    collider.hash = key.hash;
    SweepResult loaded;
    EXPECT_FALSE(cache.lookup(collider, loaded));
    // The entry itself is intact: the true key still hits.
    EXPECT_TRUE(cache.lookup(key, loaded));
}

TEST(ServeCache, PublishThenLookupIsBitExact)
{
    TempDir dir("serve_cache_roundtrip");
    ResultCache cache(dir.path);
    const SweepResult result = simulatedResult();
    const ServeKey key = serveCacheKey(result.point, 0);

    SweepResult loaded;
    EXPECT_FALSE(cache.lookup(key, loaded)); // cold
    cache.publish(key, result);
    EXPECT_EQ(cache.entriesOnDisk(), 1u);
    ASSERT_TRUE(cache.lookup(key, loaded));
    EXPECT_EQ(encodeSweepResult(loaded), encodeSweepResult(result));
}

TEST(ServeCache, DamagedEntriesDegradeToMisses)
{
    TempDir dir("serve_cache_damage");
    ResultCache cache(dir.path);
    const SweepResult result = simulatedResult();
    const ServeKey key = serveCacheKey(result.point, 0);
    cache.publish(key, result);
    const std::string path = cache.entryPath(key.hash);

    // A single flipped payload bit fails the envelope CRC.
    {
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        file.seekp(-3, std::ios::end);
        char byte;
        file.seekg(-3, std::ios::end);
        file.get(byte);
        byte = static_cast<char>(byte ^ 0x10);
        file.seekp(-3, std::ios::end);
        file.put(byte);
    }
    SweepResult loaded;
    EXPECT_FALSE(cache.lookup(key, loaded));

    // Truncation (a torn write that escaped rename) is also a miss.
    cache.publish(key, result);
    ASSERT_TRUE(cache.lookup(key, loaded));
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);
    EXPECT_FALSE(cache.lookup(key, loaded));

    // A different point's entry served under this name (a renamed
    // or copied file) fails the embedded-blob comparison.
    const ServeKey other = serveCacheKey(result.point, 1);
    cache.publish(other, result);
    std::filesystem::copy_file(
        cache.entryPath(other.hash), path,
        std::filesystem::copy_options::overwrite_existing);
    EXPECT_FALSE(cache.lookup(key, loaded));

    // In-flight tmp files are invisible to the entry count.
    {
        std::ofstream tmp(dir.path + "/feedfacefeedface.res.tmp",
                          std::ios::binary);
        tmp << "torn";
    }
    EXPECT_EQ(cache.entriesOnDisk(), 2u); // both seeds' files, no .tmp
}

TEST(ServePool, WedgedWorkerIsKilledNotWaitedOn)
{
    // hang@job#0 makes the worker's first job stall (200ms in the
    // unbounded child) — long past the 100ms dispatch deadline. The
    // pool must SIGKILL and respawn the wedged worker instead of
    // blocking in readFrame forever with the worker checked out; the
    // fresh worker hangs again (its own fault plan copy), so the job
    // fails after exactly one restart.
    setFaultSpec("hang@job#0");
    WorkerPool pool(1, 100);
    JobRequest request;
    request.point.core = "rocket";
    request.point.workload = "vvadd";
    request.point.counterArch = CounterArch::AddWires;
    request.point.maxCycles = 200'000;
    JobReply reply;
    std::string error;
    const bool ok = pool.runJob(0, request, reply, error);
    setFaultSpec("");
    EXPECT_FALSE(ok);
    EXPECT_NE(error.find("timed out"), std::string::npos) << error;
    EXPECT_EQ(pool.restarts(), 1u);
}

TEST(ServePool, RunReplyFailsWhenArchitecturesDisagree)
{
    // One simulation answers every architecture, so their encoded
    // results are equal and the reply carries that one result.
    JobRequest request;
    request.point.core = "rocket";
    request.point.workload = "vvadd";
    std::vector<SweepResult> results = simulatedRun();
    const JobReply shared = runReply(request, results);
    ASSERT_TRUE(shared.ok) << shared.error;
    EXPECT_EQ(encodeSweepResult(shared.result),
              encodeSweepResult(results[0]));

    // One field of one architecture off (as an in-band counter read
    // could make it) fails the job, naming the run.
    results[2].counters.retiredUops++;
    const JobReply split = runReply(request, results);
    EXPECT_FALSE(split.ok);
    EXPECT_NE(split.error.find("rocket/vvadd"), std::string::npos)
        << split.error;
}

TEST(ServeEndToEnd, LiveSocketIsRefusedStaleSocketReclaimed)
{
    TempDir dir("serve_socket_guard");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 1;
    {
        IcicleServer server(options);
        std::thread daemon([&] { server.run(); });
        // A second daemon on the same path must refuse to start, not
        // silently unlink the live daemon's socket out from under it.
        EXPECT_THROW(IcicleServer second(options), FatalError);
        ServeClient client(options.socketPath);
        client.shutdown();
        daemon.join();
    }
    // A stale socket file — bound, then abandoned without unlink,
    // as a SIGKILLed daemon leaves — answers the probe with
    // ECONNREFUSED and is reclaimed.
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, options.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ::close(fd);
    }
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });
    ServeClient client(options.socketPath);
    EXPECT_EQ(client.ping("alive"), "alive");
    client.shutdown();
    daemon.join();
}

TEST(ServeEndToEnd, CachedRepliesAreByteIdentical)
{
    TempDir dir("serve_e2e");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 2;
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });

    {
        ServeClient client(options.socketPath);
        EXPECT_EQ(client.ping("roundtrip"), "roundtrip");

        SweepQuery query;
        query.cores = {"rocket"};
        query.workloads = {"vvadd", "towers"};
        query.archs = {CounterArch::AddWires};
        query.maxCycles = 200'000;
        query.format = "csv";

        const SweepReply cold = client.sweep(query);
        EXPECT_EQ(cold.points, 2u);
        EXPECT_EQ(cold.cacheHits, 0u);
        EXPECT_EQ(cold.simulated, 2u);
        EXPECT_TRUE(cold.allOk);

        const SweepReply warm = client.sweep(query);
        EXPECT_EQ(warm.points, 2u);
        EXPECT_EQ(warm.cacheHits, 2u);
        EXPECT_EQ(warm.simulated, 0u);
        // The headline guarantee: the cached report is the simulated
        // report, byte for byte.
        EXPECT_EQ(warm.report, cold.report);

        // A different seed partitions the cache: same grid, miss.
        query.seed = 99;
        const SweepReply reseeded = client.sweep(query);
        EXPECT_EQ(reseeded.cacheHits, 0u);
        EXPECT_EQ(reseeded.report, cold.report);

        const std::string stats = client.stats();
        EXPECT_NE(stats.find("cache_hits: 2"), std::string::npos)
            << stats;
        EXPECT_NE(stats.find("cache_entries: 4"), std::string::npos)
            << stats;

        // Invalid requests get an Error reply naming the unknown
        // value, not a dead daemon or a grid of Failed rows.
        const auto error_of = [&](const SweepQuery &bad) {
            try {
                client.sweep(bad);
            } catch (const FatalError &err) {
                return std::string(err.what());
            }
            return std::string("answered");
        };
        SweepQuery bad = query;
        bad.cores = {"rocket", "no-such-core"};
        std::string error = error_of(bad);
        EXPECT_NE(error.find("unknown core config 'no-such-core'"),
                  std::string::npos)
            << error;
        bad = query;
        bad.workloads = {"vvadd", "no-such-workload"};
        error = error_of(bad);
        EXPECT_NE(error.find("unknown workload: no-such-workload"),
                  std::string::npos)
            << error;
    }
    {
        // The daemon survived the error; a fresh client still works.
        ServeClient client(options.socketPath);
        client.ping();
        client.shutdown();
    }
    daemon.join();
}

TEST(ServeEndToEnd, BenchServeMissesOnEveryColdKeyOfEveryRun)
{
    // Regression: icicle-bench-serve restarted its cold seeds at the
    // same value on every run, so a second run against one daemon
    // found every "cold" key already cached and read no misses.
    TempDir dir("serve_bench_runs");
    const std::string socket = dir.path + "/icicled.sock";
    LiveDaemon daemon(socket, dir.path + "/cache");
    const std::string command = std::string(ICICLE_BENCH_SERVE_BIN) +
                                " --socket '" + socket +
                                "' --clients 2 --requests 12";
    for (int run = 0; run < 2; run++) {
        FILE *pipe = ::popen(command.c_str(), "r");
        ASSERT_NE(pipe, nullptr);
        std::string out;
        char buf[256];
        while (std::fgets(buf, sizeof(buf), pipe))
            out += buf;
        const int status = ::pclose(pipe);
        // The speedup gate reads host timing, so a loaded host may
        // fail it (exit 1); a usage or connection error (2) is a bug.
        ASSERT_TRUE(WIFEXITED(status)) << out;
        EXPECT_LE(WEXITSTATUS(status), 1) << out;
        unsigned long long requests = 0, hot = 0, cold = 0, hits = 0,
                           misses = 0;
        ASSERT_EQ(std::sscanf(out.c_str(),
                              "%llu requests (%llu hot / %llu cold): "
                              "%llu hits, %llu misses",
                              &requests, &hot, &cold, &hits, &misses),
                  5)
            << out;
        EXPECT_EQ(requests, 24u) << out;
        EXPECT_GT(cold, 0u) << out;
        EXPECT_EQ(hits, hot) << "run " << run << ": " << out;
        EXPECT_EQ(misses, cold) << "run " << run << ": " << out;
    }
}

TEST(ServeEndToEnd, ColdRunsFillEveryArchFromOneWorkerJob)
{
    TempDir dir("serve_runs_cold");
    const std::string socket = dir.path + "/icicled.sock";
    LiveDaemon daemon(socket, dir.path + "/cache");
    ServeClient client(socket);

    SweepQuery query;
    query.cores = {"rocket"};
    query.workloads = {"vvadd", "towers"};
    query.archs = {std::begin(kAllArchs), std::end(kAllArchs)};
    query.maxCycles = 200'000;
    query.format = "csv";

    // Two runs, two worker jobs: each (core, workload) is simulated
    // once and answers all three archs.
    const SweepReply cold = client.sweep(query);
    EXPECT_EQ(cold.points, 6u);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.simulated, 6u);
    EXPECT_TRUE(cold.allOk);
    EXPECT_EQ(cold.report, directCsv(query));
    std::string stats = client.stats();
    EXPECT_EQ(statsValue(stats, "worker_jobs"), 2u) << stats;
    EXPECT_EQ(statsValue(stats, "jobs_simulated"), 6u) << stats;
    // One entry per run, not per point.
    EXPECT_EQ(statsValue(stats, "cache_entries"), 2u) << stats;

    const SweepReply warm = client.sweep(query);
    EXPECT_EQ(warm.cacheHits, 6u);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.report, cold.report);
    stats = client.stats();
    EXPECT_EQ(statsValue(stats, "worker_jobs"), 2u) << stats;
}

TEST(ServeEndToEnd, SingleArchMissFillsItsWholeRun)
{
    TempDir dir("serve_runs_single_arch");
    const std::string socket = dir.path + "/icicled.sock";
    LiveDaemon daemon(socket, dir.path + "/cache");
    ServeClient client(socket);

    SweepQuery query;
    query.cores = {"rocket"};
    query.workloads = {"vvadd"};
    query.archs = {CounterArch::AddWires};
    query.maxCycles = 200'000;
    query.format = "csv";
    EXPECT_EQ(client.sweep(query).simulated, 1u);
    std::string stats = client.stats();
    EXPECT_EQ(statsValue(stats, "worker_jobs"), 1u) << stats;
    EXPECT_EQ(statsValue(stats, "cache_entries"), 1u) << stats;

    // The one-arch miss filled the run: every architecture now hits,
    // with each row its own, and no job is sent.
    query.archs = {std::begin(kAllArchs), std::end(kAllArchs)};
    const SweepReply reply = client.sweep(query);
    EXPECT_EQ(reply.cacheHits, 3u);
    EXPECT_EQ(reply.simulated, 0u);
    EXPECT_TRUE(reply.allOk);
    EXPECT_EQ(reply.report, directCsv(query));
    stats = client.stats();
    EXPECT_EQ(statsValue(stats, "worker_jobs"), 1u) << stats;
    EXPECT_EQ(statsValue(stats, "cache_entries"), 1u) << stats;
}

TEST(ServeEndToEnd, RunFillsWriteTheCacheBytesOfArchByArchFills)
{
    TempDir dir("serve_runs_bytes");
    SweepQuery query;
    query.cores = {"rocket"};
    query.workloads = {"vvadd", "towers"};
    query.archs = {std::begin(kAllArchs), std::end(kAllArchs)};
    query.maxCycles = 200'000;
    query.format = "csv";
    {
        LiveDaemon daemon(dir.path + "/runs.sock", dir.path + "/runs");
        ServeClient(dir.path + "/runs.sock").sweep(query);
    }
    {
        LiveDaemon daemon(dir.path + "/archs.sock",
                          dir.path + "/archs");
        ServeClient client(dir.path + "/archs.sock");
        for (CounterArch arch : kAllArchs) {
            SweepQuery one = query;
            one.archs = {arch};
            client.sweep(one);
        }
        EXPECT_EQ(statsValue(client.stats(), "worker_jobs"), 2u);
    }
    // One entry per run either way: the first one-arch query fills
    // both runs, and the other two hit.
    const auto by_run = cacheFiles(dir.path + "/runs");
    EXPECT_EQ(by_run.size(), 2u);
    EXPECT_TRUE(by_run == cacheFiles(dir.path + "/archs"));
}

/** The first point of `query`'s grid, which names its first run. */
SweepPoint
firstPoint(const SweepQuery &query)
{
    GridSpec grid;
    grid.cores = query.cores;
    grid.workloads = query.workloads;
    grid.counterArchs = query.archs;
    grid.maxCycles = query.maxCycles;
    return grid.expand().at(0);
}

TEST(ServeEndToEnd, ConcurrentClientsOfOneColdRunShareOneFlight)
{
    // Single-flight per run: four clients ask for one cold run while
    // the leader's job is held in its worker — a ~200 ms injected
    // stall (hang@job, armed before the fork so the workers inherit
    // it) and then a 1.6M-cycle simulation. One worker job fills the
    // run; the other three requests wait on the leader's flight, then
    // find its published entry.
    TempDir dir("serve_flight");
    setFaultSpec("hang@job#0");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 2;
    IcicleServer server(options);
    setFaultSpec("");
    std::thread daemon([&] { server.run(); });

    SweepQuery query;
    query.cores = {"rocket"};
    query.workloads = {"523.xalancbmk_r"};
    query.archs = {std::begin(kAllArchs), std::end(kAllArchs)};
    query.maxCycles = 2'000'000;
    query.format = "csv";
    constexpr size_t kClients = 4;
    std::vector<std::string> reports(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; c++) {
        clients.emplace_back([&, c] {
            reports[c] = ServeClient(options.socketPath).sweep(query).report;
        });
    }
    for (std::thread &client : clients)
        client.join();

    const std::string direct = directCsv(query);
    for (const std::string &report : reports)
        EXPECT_EQ(report, direct);
    ServeClient client(options.socketPath);
    const std::string stats = client.stats();
    EXPECT_EQ(statsValue(stats, "worker_jobs"), 1u) << stats;
    EXPECT_EQ(statsValue(stats, "flight_waits"), kClients - 1) << stats;
    EXPECT_EQ(statsValue(stats, "cache_hits"), 3 * (kClients - 1))
        << stats;
    client.shutdown();
    daemon.join();
}

TEST(ServeEndToEnd, ColdRunTakesAnIdleWorkerWhenItsPreferredOneIsBusy)
{
    // Work-conserving dispatch on two workers: a long cold run holds
    // one worker when a short cold run whose run hash prefers the
    // same worker arrives. The short run takes the idle worker and
    // finishes first, without waiting for a worker.
    TempDir dir("serve_any_idle");
    const std::string socket = dir.path + "/icicled.sock";
    LiveDaemon daemon(socket, dir.path + "/cache");

    SweepQuery slow;
    slow.cores = {"boom-large"};
    slow.workloads = {"523.xalancbmk_r"};
    slow.archs = {CounterArch::AddWires};
    slow.maxCycles = 3'000'000;
    slow.format = "csv";
    SweepQuery quick = slow;
    quick.cores = {"rocket"};
    quick.workloads = {"vvadd"};
    quick.maxCycles = 20'000;
    const u64 preferred =
        serveCacheKey(firstPoint(slow), slow.seed).hash % 2;
    while (serveCacheKey(firstPoint(quick), quick.seed).hash % 2 !=
           preferred)
        quick.seed++;

    std::atomic<bool> slow_done{false};
    std::thread occupant([&] {
        EXPECT_TRUE(ServeClient(socket).sweep(slow).allOk);
        slow_done = true;
    });
    // The job counter moves once the long run holds its worker.
    ServeClient client(socket);
    while (statsValue(client.stats(), "worker_jobs") == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const SweepReply reply = client.sweep(quick);
    EXPECT_FALSE(slow_done.load());
    EXPECT_EQ(reply.simulated, 1u);
    EXPECT_EQ(reply.report, directCsv(quick));
    occupant.join();
    const std::string stats = client.stats();
    EXPECT_EQ(statsValue(stats, "worker_jobs"), 2u) << stats;
    EXPECT_EQ(statsValue(stats, "worker_waits"), 0u) << stats;
}

TEST(ServeEndToEnd, ZeroWidthWindowIsAnErrorAndTheDaemonKeepsServing)
{
    // Regression: a window query with core width 0 was answered with
    // zero slots and 0% in every class, which reads like a perfect
    // run. It must get an Error reply, and the daemon must go on
    // answering the same store.
    TempDir dir("serve_zero_width");
    const std::string store = dir.path + "/run.icst";
    {
        std::unique_ptr<Core> core = makeSweepCore(
            "rocket", CounterArch::AddWires, buildWorkload("vvadd"));
        streamTraceToStore(*core, TraceSpec::tmaBundle(*core), 20'000,
                           store, 4096);
    }
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 1;
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });
    {
        ServeClient client(options.socketPath);
        WindowQuery query;
        query.storePath = store;
        query.begin = 0;
        query.end = 1'000;
        query.coreWidth = 0;
        try {
            client.windowTma(query);
            // ADD_FAILURE, not FAIL: the daemon must still be joined.
            ADD_FAILURE() << "zero-width window answered";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("core width"),
                      std::string::npos)
                << err.what();
        }
        query.coreWidth = 1;
        EXPECT_EQ(client.windowTma(query).tma.totalSlots, 1'000u);
        client.shutdown();
    }
    daemon.join();
}

/** A TMA result's wire bytes, without the reader's decode count. */
std::string
tmaBytes(const TmaResult &tma)
{
    WindowReply reply;
    reply.tma = tma;
    return encodeWindowReply(reply);
}

TEST(ServeEndToEnd, WindowQueriesFollowAStoreReplacedAtItsPath)
{
    // Regression: the daemon kept its first reader of a path forever.
    // Store writers replace files by rename, so after a new capture
    // to the same path it went on answering from the old file.
    TempDir dir("serve_replaced_store");
    const std::string store = dir.path + "/run.icst";
    const auto capture = [&](const char *workload) {
        std::unique_ptr<Core> core = makeSweepCore(
            "rocket", CounterArch::AddWires, buildWorkload(workload));
        streamTraceToStore(*core, TraceSpec::tmaBundle(*core), 20'000,
                           store, 4096);
    };
    WindowQuery query;
    query.storePath = store;
    query.begin = 1'000;
    query.end = 10'000;
    query.coreWidth = 1;
    const auto direct = [&] {
        return tmaBytes(StoreReader(store).windowTma(
            query.begin, query.end, query.coreWidth));
    };

    const std::string socket = dir.path + "/icicled.sock";
    LiveDaemon daemon(socket, dir.path + "/cache");
    ServeClient client(socket);
    capture("vvadd");
    const std::string first = direct();
    EXPECT_EQ(tmaBytes(client.windowTma(query).tma), first);
    capture("towers");
    const std::string second = direct();
    ASSERT_NE(second, first);
    EXPECT_EQ(tmaBytes(client.windowTma(query).tma), second);
    // The new reader is kept while the file stays the same.
    EXPECT_EQ(tmaBytes(client.windowTma(query).tma), second);
}

/** /proc/self/fd links that name `path` as a deleted file. */
u32
deletedFdsNaming(const std::string &path)
{
    u32 open = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        std::error_code ec;
        const std::string target =
            std::filesystem::read_symlink(entry.path(), ec).string();
        if (!ec && target == path + " (deleted)")
            open++;
    }
    return open;
}

TEST(ServeEndToEnd, WindowQueryOnADeletedStoreDropsItsReader)
{
    // Regression: after a queried store was deleted, the daemon kept
    // its reader, and the reader's open fd, until a new store
    // appeared at the same path.
    TempDir dir("serve_deleted_store");
    const std::string store =
        std::filesystem::canonical(dir.path).string() + "/run.icst";
    {
        std::unique_ptr<Core> core = makeSweepCore(
            "rocket", CounterArch::AddWires, buildWorkload("vvadd"));
        streamTraceToStore(*core, TraceSpec::tmaBundle(*core), 20'000,
                           store, 4096);
    }
    WindowQuery query;
    query.storePath = store;
    query.begin = 0;
    query.end = 10'000;
    query.coreWidth = 1;

    const std::string socket = dir.path + "/icicled.sock";
    LiveDaemon daemon(socket, dir.path + "/cache");
    ServeClient client(socket);
    EXPECT_EQ(client.windowTma(query).tma.totalSlots, 10'000u);
    std::filesystem::remove(store);
    EXPECT_THROW(client.windowTma(query), FatalError);
    EXPECT_EQ(deletedFdsNaming(store), 0u)
        << "a reader still holds the deleted store open";
}

/**
 * The `icicled stats` block is an interface (CI greps it, the load
 * harness and perfbench read it): every key, once each, in this
 * order, each line `key: <decimal>`.
 */
TEST(ServeEndToEnd, StatsPrintsEveryKeyOnceInOrder)
{
    TempDir dir("serve_stats_keys");
    LiveDaemon daemon(dir.path + "/icicled.sock", dir.path + "/cache");
    ServeClient client(dir.path + "/icicled.sock");
    std::istringstream lines(client.stats());
    std::vector<std::string> keys;
    std::string line;
    while (std::getline(lines, line)) {
        const size_t colon = line.find(": ");
        ASSERT_NE(colon, std::string::npos) << line;
        EXPECT_EQ(line.find_first_not_of("0123456789", colon + 2),
                  std::string::npos)
            << line;
        keys.push_back(line.substr(0, colon));
    }
    const std::vector<std::string> expected = {
        "requests",        "sweep_requests",   "window_requests",
        "points",          "cache_hits",       "cache_misses",
        "jobs_simulated",  "errors",           "shed_conns",
        "shed_requests",   "publish_failures", "degraded_points",
        "flight_waits",    "worker_waits",     "degraded",
        "max_conns",       "max_queue",        "worker_restarts",
        "worker_jobs",     "shards",           "cache_entries"};
    EXPECT_EQ(keys, expected);
}

// ---- overload protection and client resilience ----------------------

/**
 * stall@read regression for the per-attempt reply deadline: a daemon
 * that takes a frame but stalls before reading the next one must not
 * hang the client past attemptTimeoutMs — the timeout fires, the
 * client reconnects, and the retry (a fresh read ordinal) succeeds.
 */
TEST(ServeEndToEnd, StalledDaemonReadTripsClientTimeoutThenRetries)
{
    TempDir dir("serve_stall_read");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 1;
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });

    // Armed before the first connection, so the very first
    // server-side frame read (ordinal 0) stalls well past the
    // client's 200ms attempt deadline.
    setFaultSpec("stall@read#0=1000");
    ClientOptions copts;
    copts.attemptTimeoutMs = 200;
    {
        ServeClient client(options.socketPath, copts);
        EXPECT_EQ(client.ping("still-there"), "still-there");
        EXPECT_GE(client.timeouts(), 1u);
        EXPECT_GE(client.retries(), 1u);
    }
    setFaultSpec("");

    ServeClient finisher(options.socketPath);
    finisher.shutdown();
    daemon.join();
}

/**
 * Admission gate, stage 1: with the connection cap full, further
 * connections are shed with an Overloaded notice (visible in the
 * client's counters and the daemon's), and once the cap frees the
 * same retry policy gets a client through — shedding preserves
 * availability instead of letting load wedge the daemon.
 */
TEST(ServeEndToEnd, ConnectionCapShedsThenRecovers)
{
    TempDir dir("serve_shed_conns");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 1;
    options.maxConns = 1;
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });

    auto holder = std::make_unique<ServeClient>(options.socketPath);
    EXPECT_EQ(holder->ping("occupy"), "occupy");

    // While the one admitted connection lives, every attempt of a
    // second client is shed until its retry budget runs out.
    {
        ClientOptions copts;
        copts.maxRetries = 2;
        ServeClient shed(options.socketPath, copts);
        EXPECT_THROW(shed.ping(), FatalError);
        EXPECT_GE(shed.shedsSeen(), 1u);
        EXPECT_EQ(shed.attempts(), 3u); // first try + 2 retries
    }

    // Cap freed: a default-policy client absorbs any straggling shed
    // (the daemon counts the holder's close asynchronously) and gets
    // admitted.
    holder.reset();
    ServeClient after(options.socketPath);
    EXPECT_EQ(after.ping("admitted"), "admitted");
    const std::string stats = after.stats();
    EXPECT_GE(statsValue(stats, "shed_conns"), 3u);
    after.shutdown();
    daemon.join();
}

/**
 * Admission gate, stage 2: with one worker and a miss-path cap of
 * one run, a second concurrent miss is shed with a retry hint
 * instead of queueing for the worker — and the shed client's
 * retry/backoff absorbs it, succeeding once the first run's flight
 * ends.
 */
TEST(ServeEndToEnd, QueueCapShedsMissesUntilTheShardDrains)
{
    TempDir dir("serve_shed_queue");
    // The slow miss is manufactured, not simulated: hang@job stalls
    // the occupant's job in its worker for a bounded beat (~200ms in
    // the unbounded child) before it completes — the micro workloads
    // themselves finish far too fast to hold a queue slot reliably.
    // Armed before the fork so the workers inherit it; the 500ms job
    // deadline is headroom above the stall, so no worker is killed.
    setFaultSpec("hang@job#0");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 1;
    options.maxQueue = 1;
    options.jobTimeoutMs = 500;
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });

    SweepQuery slow;
    slow.cores = {"rocket"};
    slow.workloads = {"towers"};
    slow.archs = {CounterArch::AddWires};
    slow.maxCycles = 50'000;
    slow.format = "csv";
    SweepQuery blocked = slow;
    blocked.workloads = {"vvadd"};

    std::thread occupant([&] {
        ServeClient a(options.socketPath);
        // The job stalls in the worker for its ~200ms hang beat and
        // then completes — well inside the 500ms deadline, but long
        // enough to hold the single miss-path slot while B knocks.
        const SweepReply reply = a.sweep(slow);
        EXPECT_TRUE(reply.allOk);
    });
    // Let the stalled miss take the single miss-path slot, then disarm
    // so any worker forked from here on starts from the clean plan.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    setFaultSpec("");
    ClientOptions copts;
    copts.maxRetries = 50;
    ServeClient b(options.socketPath, copts);
    const SweepReply reply = b.sweep(blocked);
    EXPECT_TRUE(reply.allOk);
    occupant.join();

    EXPECT_GE(b.shedsSeen(), 1u);
    EXPECT_GE(statsValue(b.stats(), "shed_requests"), 1u);
    b.shutdown();
    daemon.join();
}

/**
 * Graceful degradation: persistent cache-publish failure (injected
 * ENOSPC at the StoreWrite site) must flip the daemon into
 * compute-only serving after three consecutive strikes —
 * requests keep succeeding with byte-identical reports, they just
 * stop memoising. The workers were forked before the spec was armed,
 * so only the parent-side publish path sees the fault.
 */
TEST(ServeEndToEnd, PersistentPublishFailureDegradesToComputeOnly)
{
    TempDir dir("serve_degraded");
    ServerOptions options;
    options.socketPath = dir.path + "/icicled.sock";
    options.cacheDir = dir.path + "/cache";
    options.shards = 1;
    IcicleServer server(options);
    std::thread daemon([&] { server.run(); });
    setFaultSpec("enospc@store#0,enospc@store#1,enospc@store#2");

    ServeClient client(options.socketPath);
    SweepQuery query;
    query.cores = {"rocket"};
    query.workloads = {"vvadd", "towers", "qsort"};
    query.archs = {std::begin(kAllArchs), std::end(kAllArchs)};
    query.maxCycles = 200'000;
    query.format = "csv";

    // All three runs' publishes fail: the request still succeeds
    // (the computed results in hand are correct), and strike three
    // flips degraded.
    const SweepReply cold = client.sweep(query);
    EXPECT_TRUE(cold.allOk);
    EXPECT_EQ(cold.simulated, 9u);
    EXPECT_TRUE(server.isDegraded());

    // Degraded = compute-only: the same grid misses and
    // re-simulates, with byte-identical output.
    const SweepReply again = client.sweep(query);
    EXPECT_TRUE(again.allOk);
    EXPECT_EQ(again.cacheHits, 0u);
    EXPECT_EQ(again.simulated, 9u);
    EXPECT_EQ(again.report, cold.report);

    const std::string stats = client.stats();
    EXPECT_EQ(statsValue(stats, "publish_failures"), 3u);
    EXPECT_EQ(statsValue(stats, "degraded"), 1u);
    // Every point of the second request, three runs of three.
    EXPECT_EQ(statsValue(stats, "degraded_points"), 9u);
    setFaultSpec("");
    client.shutdown();
    daemon.join();
}

// ---- ServeStats torn-snapshot contract ------------------------------

/**
 * The hammer behind server.hh's documented contract: counters are
 * individually monotonic (the dispatch wait counters included),
 * every mid-flight snapshot satisfies cacheHits + cacheMisses >=
 * points, and a quiescent snapshot is exact. A failed pin here means
 * someone weakened the release/acquire pairing in
 * countPoint()/snapshot().
 */
TEST(ServeStats, SnapshotsAreMonotonicAndPinned)
{
    ServeStats stats;
    constexpr u64 kThreads = 4;
    constexpr u64 kPerThread = 20'000;
    std::vector<std::thread> writers;
    for (u64 t = 0; t < kThreads; t++) {
        writers.emplace_back([&stats, t] {
            for (u64 i = 0; i < kPerThread; i++) {
                stats.add(ServeStat::Requests);
                if (i % 4 == t)
                    stats.add(ServeStat::FlightWaits);
                if (i % 8 == t)
                    stats.add(ServeStat::WorkerWaits);
                stats.countPoint(/*hit=*/(i + t) % 2 == 0);
            }
        });
    }

    using enum ServeStat;
    ServeStats::Snapshot last;
    for (int probe = 0; probe < 2'000; probe++) {
        const ServeStats::Snapshot snap = stats.snapshot();
        // Individually monotonic: no counter ever goes backwards.
        EXPECT_GE(snap[Points], last[Points]);
        EXPECT_GE(snap[CacheHits], last[CacheHits]);
        EXPECT_GE(snap[CacheMisses], last[CacheMisses]);
        EXPECT_GE(snap[Requests], last[Requests]);
        EXPECT_GE(snap[FlightWaits], last[FlightWaits]);
        EXPECT_GE(snap[WorkerWaits], last[WorkerWaits]);
        // The pinned cross-counter relation, valid mid-flight.
        EXPECT_GE(snap[CacheHits] + snap[CacheMisses], snap[Points]);
        last = snap;
    }
    for (std::thread &writer : writers)
        writer.join();

    // Quiescent: exact.
    const ServeStats::Snapshot done = stats.snapshot();
    EXPECT_EQ(done[Points], kThreads * kPerThread);
    EXPECT_EQ(done[Requests], kThreads * kPerThread);
    EXPECT_EQ(done[CacheHits] + done[CacheMisses], done[Points]);
    EXPECT_EQ(done[CacheHits], kThreads * kPerThread / 2);
    EXPECT_EQ(done[Simulated], done[CacheMisses]);
    EXPECT_EQ(done[FlightWaits], kThreads * kPerThread / 4);
    EXPECT_EQ(done[WorkerWaits], kThreads * kPerThread / 8);
}

// ---- fork safety -----------------------------------------------------

/**
 * The PR-8 wedged-worker class, pinned as a checkable rule: forking a
 * worker while the forking thread holds any icicle lock outside the
 * dispatch pair hands the child a mutex nobody will ever unlock.
 * WorkerPool::spawn() consults the lock-order runtime's held-lock
 * stack; holding an unrelated lock across pool construction must
 * record a SYNC-003 violation, and ordinary pool use must not.
 */
TEST(ServePool, ForkWhileHoldingForeignLockIsViolation)
{
    lockorder::setLockOrderEnabled(true);
    lockorder::resetLockOrder();
    const u64 before = lockorder::forkViolations();
    {
        // Normal construction + a round of jobs: fork-safe.
        WorkerPool pool(1);
        JobRequest request;
        request.point.core = "rocket";
        request.point.workload = "vvadd";
        request.point.counterArch = CounterArch::AddWires;
        request.point.maxCycles = 50'000;
        JobReply reply;
        std::string error;
        ASSERT_TRUE(pool.runJob(0, request, reply, error)) << error;
        EXPECT_TRUE(reply.ok);
    }
    EXPECT_EQ(lockorder::forkViolations(), before);

    {
        Mutex unrelated("test.serve.fork.unrelated",
                        lockrank::kTestBase);
        LockGuard held(unrelated);
        WorkerPool pool(1);
    }
    EXPECT_EQ(lockorder::forkViolations(), before + 1);
    const lockorder::LockOrderReport report =
        lockorder::lockOrderReport();
    bool recorded = false;
    for (const auto &violation : report.violations) {
        recorded |= violation.kind == "fork-held-lock" &&
                    violation.message.find(
                        "test.serve.fork.unrelated") !=
                        std::string::npos;
    }
    EXPECT_TRUE(recorded);
    lockorder::resetLockOrder();
}

} // namespace
} // namespace icicle
