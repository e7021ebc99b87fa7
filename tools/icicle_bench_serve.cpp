/**
 * @file
 * icicle-bench-serve: load generator and acceptance gate for icicled.
 *
 *   $ icicled serve --socket /tmp/ic.sock &
 *   $ icicle-bench-serve --socket /tmp/ic.sock --clients 6 \
 *       --requests 200
 *
 * Drives N concurrent clients over a mixed hot/cold key
 * distribution: hot keys are a small fixed set of (workload, seed)
 * points warmed into the cache before measurement; cold keys use
 * seeds fresh to this run, so every cold request simulates, on a
 * second run against the same daemon too. Each request is a
 * single-point sweep; its latency is classified by what the daemon
 * reports (cacheHits == points → hit). When the load drains, the
 * same process prints the totals and evaluates the four acceptance
 * gates:
 *   - hot-key hit rate >= 0.9
 *   - p50 miss latency / p99 hit latency >= 10
 *   - errors == 0
 *   - degraded == 0 (a daemon that fell back to compute-only serving
 *     mid-run cannot back the caching claim)
 *
 * Exit status: 0 every gate passes, 1 a gate fails, 2 usage error or
 * connection failure.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "serve/chaos.hh"
#include "serve/client.hh"

using namespace icicle;

namespace
{

constexpr char kUsage[] =
    "usage: icicle-bench-serve [options]\n"
    "\n"
    "Runs a mixed hot/cold load against a running icicled, then gates\n"
    "it: hot hit rate >= 0.9, p50 miss / p99 hit latency >= 10,\n"
    "errors == 0 and degraded == 0 (exit 1 when a gate fails).\n"
    "\n"
    "  --socket PATH     daemon socket (default: $ICICLED_SOCKET)\n"
    "  --clients N       concurrent client threads (default: 4)\n"
    "  --requests N      requests per client (default: 25)\n";

/** Probability a request draws a hot key. */
constexpr double kHotFraction = 0.9;
/** Size of the hot key set: seeds 0..kHotKeys-1. */
constexpr u64 kHotKeys = 4;
/**
 * Cold-path realism: big enough that a simulated point costs tens of
 * milliseconds, so the hit/miss latency gap measures the cache, not
 * connection overhead.
 */
constexpr u64 kMaxCycles = 2'000'000;
constexpr double kMinHitRate = 0.9;
constexpr double kMinSpeedup = 10;

struct Options
{
    std::string socket;
    u32 clients = 4;
    u32 requests = 25;
};

/** One measured request. */
struct Sample
{
    /** Wall latency of the whole exchange, retries included. */
    double micros = 0;
    bool hot = false;
    bool hit = false;
    bool error = false;
};

/** Cumulative ServeClient robustness counters for one thread. */
struct ClientCounters
{
    u64 attempts = 0;
    u64 retries = 0;
    u64 shedsSeen = 0;
    u64 timeouts = 0;
};

/** The micro workloads every hot key draws from. */
constexpr const char *kBenchWorkload = "vvadd";
constexpr const char *kBenchCore = "rocket";

SweepQuery
pointQuery(u64 seed)
{
    SweepQuery query;
    query.cores = {kBenchCore};
    query.workloads = {kBenchWorkload};
    query.archs = {CounterArch::AddWires};
    query.maxCycles = kMaxCycles;
    query.seed = seed;
    query.format = "csv";
    return query;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0;
    const size_t index = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sorted.size())));
    return sorted[index];
}

int
runLoad(const Options &opts)
{
    // Warm phase: populate every hot key sequentially so measured
    // hot requests exercise the steady-state (warm-cache) path.
    {
        ServeClient warm(opts.socket);
        for (u64 k = 0; k < kHotKeys; k++)
            warm.sweep(pointQuery(k));
    }

    // Cold seeds are fresh to this run: a random base with the top
    // bit set, so they never meet the hot seeds and a second run
    // against the same daemon does not find them cached.
    std::random_device entropy;
    std::atomic<u64> cold_seed{
        (u64{entropy()} << 32 | entropy()) | (1ull << 63)};
    std::vector<std::vector<Sample>> per_thread(opts.clients);
    std::vector<ClientCounters> per_thread_counters(opts.clients);
    std::vector<std::thread> threads;
    for (u32 t = 0; t < opts.clients; t++) {
        threads.emplace_back([&, t] {
            std::vector<Sample> &samples = per_thread[t];
            // Owned via pointer so the counters survive into the
            // post-loop read even when a request raises mid-run.
            std::unique_ptr<ServeClient> client;
            try {
                client = std::make_unique<ServeClient>(opts.socket);
                // Deterministic per-thread LCG for the hot/cold
                // draw (no global RNG state).
                u64 lcg = 0x9e3779b97f4a7c15ull + t;
                for (u32 r = 0; r < opts.requests; r++) {
                    lcg = lcg * 6364136223846793005ull +
                          1442695040888963407ull;
                    const double draw =
                        static_cast<double>(lcg >> 11) /
                        static_cast<double>(1ull << 53);
                    Sample sample;
                    sample.hot = draw < kHotFraction;
                    const u64 seed = sample.hot
                                         ? (lcg >> 33) % kHotKeys
                                         : cold_seed.fetch_add(1);
                    const auto begin =
                        std::chrono::steady_clock::now();
                    const SweepReply reply =
                        client->sweep(pointQuery(seed));
                    const auto end =
                        std::chrono::steady_clock::now();
                    sample.micros =
                        std::chrono::duration<double, std::micro>(
                            end - begin)
                            .count();
                    sample.hit = reply.cacheHits == reply.points &&
                                 reply.points > 0;
                    sample.error = !reply.allOk;
                    samples.push_back(sample);
                }
            } catch (const FatalError &err) {
                Sample sample;
                sample.error = true;
                samples.push_back(sample);
                std::fprintf(stderr, "client %u: %s\n", t,
                             err.what());
            }
            if (client) {
                ClientCounters &counters = per_thread_counters[t];
                counters.attempts = client->attempts();
                counters.retries = client->retries();
                counters.shedsSeen = client->shedsSeen();
                counters.timeouts = client->timeouts();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    // Daemon-side robustness counters, read after the load drains so
    // they cover the whole measured phase.
    u64 shed_conns = 0, shed_requests = 0, degraded = 0;
    {
        ServeClient probe(opts.socket);
        const std::string stats = probe.stats();
        shed_conns = statsValue(stats, "shed_conns");
        shed_requests = statsValue(stats, "shed_requests");
        degraded = statsValue(stats, "degraded");
    }

    // Aggregate.
    u64 requests = 0, hot_requests = 0, cold_requests = 0;
    u64 hits = 0, misses = 0, hot_hits = 0, errors = 0;
    std::vector<double> hit_us, miss_us;
    for (const auto &samples : per_thread) {
        for (const Sample &sample : samples) {
            if (sample.error) {
                errors++;
                continue;
            }
            requests++;
            (sample.hot ? hot_requests : cold_requests)++;
            if (sample.hit) {
                hits++;
                hot_hits += sample.hot ? 1 : 0;
                hit_us.push_back(sample.micros);
            } else {
                misses++;
                miss_us.push_back(sample.micros);
            }
        }
    }
    ClientCounters client_totals;
    for (const ClientCounters &counters : per_thread_counters) {
        client_totals.attempts += counters.attempts;
        client_totals.retries += counters.retries;
        client_totals.shedsSeen += counters.shedsSeen;
        client_totals.timeouts += counters.timeouts;
    }
    std::sort(hit_us.begin(), hit_us.end());
    std::sort(miss_us.begin(), miss_us.end());
    const double hot_hit_rate =
        hot_requests
            ? static_cast<double>(hot_hits) /
                  static_cast<double>(hot_requests)
            : 0;
    const double hit_p50 = percentile(hit_us, 0.50);
    const double hit_p99 = percentile(hit_us, 0.99);
    const double miss_p50 = percentile(miss_us, 0.50);
    const double miss_p99 = percentile(miss_us, 0.99);

    std::printf("%llu requests (%llu hot / %llu cold): "
                "%llu hits, %llu misses, hot hit rate %.3f\n"
                "latency p50/p99 us: hit %.1f/%.1f, miss %.1f/%.1f\n"
                "robustness: %llu attempts, %llu retries, "
                "%llu sheds, %llu timeouts, server shed %llu/%llu, "
                "degraded %llu\n",
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(hot_requests),
                static_cast<unsigned long long>(cold_requests),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                hot_hit_rate, hit_p50, hit_p99, miss_p50, miss_p99,
                static_cast<unsigned long long>(
                    client_totals.attempts),
                static_cast<unsigned long long>(
                    client_totals.retries),
                static_cast<unsigned long long>(
                    client_totals.shedsSeen),
                static_cast<unsigned long long>(
                    client_totals.timeouts),
                static_cast<unsigned long long>(shed_conns),
                static_cast<unsigned long long>(shed_requests),
                static_cast<unsigned long long>(degraded));

    // The acceptance gates. The speedup is the conservative reading
    // of "cache hits are >= 10x faster than simulation": the median
    // miss against the slowest hits, measured under contention.
    const double speedup = hit_p99 > 0 ? miss_p50 / hit_p99 : 0;
    const struct
    {
        const char *name;
        double value;
        /** value >= bound; otherwise value == bound. */
        bool atLeast;
        double bound;
    } gates[] = {
        {"hot_hit_rate", hot_hit_rate, true, kMinHitRate},
        {"p50_miss_over_p99_hit", speedup, true, kMinSpeedup},
        {"errors", static_cast<double>(errors), false, 0},
        {"degraded", static_cast<double>(degraded), false, 0},
    };
    int failed = 0;
    for (const auto &gate : gates) {
        const bool ok = gate.atLeast ? gate.value >= gate.bound
                                     : gate.value == gate.bound;
        std::printf("gate %-22s %10.3f %s %-4g %s\n", gate.name,
                    gate.value, gate.atLeast ? ">=" : "==",
                    gate.bound, ok ? "ok" : "FAIL");
        failed += ok ? 0 : 1;
    }
    if (failed > 0) {
        std::fflush(stdout);
        std::fprintf(stderr, "icicle-bench-serve: %d of 4 gates "
                             "failed\n",
                     failed);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (const char *env = std::getenv("ICICLED_SOCKET"))
        opts.socket = env;

    try {
        for (int i = 1; i < argc; i++) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    std::exit(cli::missingValue(arg, kUsage));
                return argv[++i];
            };
            if (cli::isHelp(arg)) {
                return cli::usageExit(stdout, kUsage);
            } else if (arg == "--socket") {
                opts.socket = value();
            } else if (arg == "--clients") {
                opts.clients = cli::parseNumber<u32>(arg, value());
            } else if (arg == "--requests") {
                opts.requests = cli::parseNumber<u32>(arg, value());
            } else {
                return cli::unknownOption(arg, kUsage);
            }
        }

        if (opts.socket.empty()) {
            std::fprintf(stderr,
                         "no socket: pass --socket or set "
                         "$ICICLED_SOCKET\n");
            return cli::usageExit(stderr, kUsage);
        }
        if (opts.clients == 0 || opts.requests == 0) {
            std::fprintf(stderr,
                         "--clients and --requests must be > 0\n");
            return cli::usageExit(stderr, kUsage);
        }
        return runLoad(opts);
    } catch (const FatalError &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 2;
    }
}
