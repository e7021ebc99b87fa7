#include "serve/chaos.hh"

#include <filesystem>
#include <sstream>
#include <thread>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/sync.hh"
#include "fault/fault.hh"
#include "sweep/sweep.hh"

namespace icicle
{

namespace
{

/** One deterministic query the load threads draw from. */
struct ChaosQuery
{
    SweepQuery query;
    /** Byte oracle: direct icicle-sweep output for the same grid. */
    std::string expected;
};

/**
 * The fixed query set: small single- and multi-point grids over the
 * fast cores/workloads, csv format (stable, newline-terminated
 * rows); the last asks every counter architecture of one run, so its
 * rows all come from the run's one entry, whichever query filled it.
 * Expected bytes come from the same engine the CLI uses, so CHAOS-001
 * is exactly the serve-vs-CLI byte-identity claim.
 */
std::vector<ChaosQuery>
buildQueries(const ChaosOptions &opts)
{
    const std::vector<CounterArch> addwires = {CounterArch::AddWires};
    const std::vector<CounterArch> all = {CounterArch::Scalar,
                                          CounterArch::AddWires,
                                          CounterArch::Distributed};
    const std::vector<std::pair<std::vector<std::string>,
                                std::vector<CounterArch>>>
        grids = {{{"vvadd"}, addwires},
                 {{"towers"}, addwires},
                 {{"vvadd", "towers"}, addwires},
                 {{"vvadd"}, all}};
    std::vector<ChaosQuery> queries;
    for (const auto &[workloads, archs] : grids) {
        ChaosQuery cq;
        cq.query.cores = {"rocket"};
        cq.query.workloads = workloads;
        cq.query.archs = archs;
        cq.query.maxCycles = opts.maxCycles;
        cq.query.format = "csv";

        GridSpec grid;
        grid.cores = cq.query.cores;
        grid.workloads = cq.query.workloads;
        grid.counterArchs = cq.query.archs;
        grid.maxCycles = cq.query.maxCycles;
        grid.withTrace = false;
        const std::vector<SweepResult> results =
            runSweep(grid, SweepOptions{});
        cq.expected = formatSweepCsv(results, false);
        queries.push_back(std::move(cq));
    }
    return queries;
}

/**
 * A seeded episode schedule over the serve-path fault sites. The
 * ordinals are drawn small enough that most clauses actually fire
 * under the episode's load (clients * requests events per site);
 * which request a given ordinal lands on is interleaving-dependent,
 * and the invariants are deliberately independent of that.
 */
std::string
episodeSpec(const ChaosOptions &opts, u32 episode)
{
    Rng rng(opts.seed ^ ((episode + 1) * 0x9e3779b97f4a7c15ull));
    const u64 accepts = opts.clients * 2;
    const u64 replies =
        static_cast<u64>(opts.clients) * opts.requestsPerClient;
    std::ostringstream spec;
    spec << "seed=" << (opts.seed + episode);
    spec << ",conn-reset@accept#" << rng.below(accepts);
    // Two distinct reply ordinals: a reset and a torn frame, never
    // colliding (a clause that loses the ordinal race simply stays
    // armed and harmless past the episode).
    const u64 reset_reply = rng.below(replies);
    u64 torn_reply = rng.below(replies);
    if (torn_reply == reset_reply)
        torn_reply = (torn_reply + 1) % (replies + 1);
    spec << ",conn-reset@reply#" << reset_reply;
    spec << ",torn-frame@reply#" << torn_reply;
    // One short stall (slow but within the attempt deadline) and one
    // past it (forces the client's per-attempt timeout + retry).
    spec << ",stall@read#" << rng.below(replies) << "="
         << (100 + rng.below(200));
    spec << ",stall@write#" << rng.below(replies) << "="
         << (opts.client.attemptTimeoutMs + 500);
    // Only cache misses dispatch jobs, one per run, and the query
    // set holds two distinct runs (rocket/vvadd and rocket/towers) —
    // target the first dispatches so the clause actually fires on the
    // cold (first) episode.
    spec << ",kill@worker#" << rng.below(2);
    return spec.str();
}

/** Mutable run state shared by the load threads. */
struct ChaosTally
{
    Mutex mutex{"chaos.verdict", lockrank::kTestBase};
    ChaosVerdict verdict ICICLE_GUARDED_BY(mutex);
};

void
clientThread(const ChaosOptions &opts, u32 episode, u32 thread_index,
             const std::string &socket_path,
             const std::vector<ChaosQuery> &queries,
             ChaosTally &tally)
{
    Rng rng(opts.seed ^ ((episode + 1) * 0x100000001b3ull) ^
            (thread_index * 0x9e3779b97f4a7c15ull));
    ClientOptions copts = opts.client;
    copts.jitterSeed = opts.seed ^ thread_index;

    u64 issued = 0, ok = 0, wrong = 0, failed = 0;
    u64 attempts = 0, retries = 0, sheds = 0, timeouts = 0;
    std::vector<std::string> failures;
    try {
        ServeClient client(socket_path, copts);
        for (u32 r = 0; r < opts.requestsPerClient; r++) {
            const ChaosQuery &cq =
                queries[rng.below(queries.size())];
            issued++;
            // A FatalError here (retry budget / total deadline
            // exhausted, or a daemon Error frame) is a CHAOS-002
            // violation for THIS request; later requests still run.
            try {
                const SweepReply reply = client.sweep(cq.query);
                if (reply.report == cq.expected) {
                    ok++;
                } else {
                    wrong++;
                    failures.push_back(
                        "CHAOS-001: episode " +
                        std::to_string(episode) + " client " +
                        std::to_string(thread_index) +
                        ": accepted reply differs from direct "
                        "icicle-sweep bytes for grid '" +
                        cq.query.workloads.front() +
                        (cq.query.workloads.size() > 1 ? "+..."
                                                       : "") +
                        (cq.query.archs.size() > 1 ? " x archs" : "") +
                        "'");
                }
            } catch (const FatalError &err) {
                failed++;
                failures.push_back(
                    "CHAOS-002: episode " + std::to_string(episode) +
                    " client " + std::to_string(thread_index) +
                    " request " + std::to_string(r) +
                    " never succeeded: " + err.what());
            }
        }
        attempts = client.attempts();
        retries = client.retries();
        sheds = client.shedsSeen();
        timeouts = client.timeouts();
    } catch (const FatalError &err) {
        // Construction failed (daemon unreachable): every request
        // this client would have issued counts as failed.
        failed += opts.requestsPerClient - issued;
        failures.push_back("CHAOS-002: episode " +
                           std::to_string(episode) + " client " +
                           std::to_string(thread_index) +
                           " could not connect: " + err.what());
    }

    LockGuard lock(tally.mutex);
    tally.verdict.requestsIssued += opts.requestsPerClient;
    tally.verdict.requestsOk += ok;
    tally.verdict.wrongBytes += wrong;
    tally.verdict.clientFailures += failed;
    tally.verdict.attempts += attempts;
    tally.verdict.retries += retries;
    tally.verdict.shedsSeen += sheds;
    tally.verdict.timeouts += timeouts;
    for (std::string &failure : failures)
        tally.verdict.failures.push_back(std::move(failure));
}

} // namespace

u64
statsValue(const std::string &stats_text, const std::string &key)
{
    const std::string needle = key + ": ";
    size_t pos = 0;
    while (pos < stats_text.size()) {
        const size_t eol = stats_text.find('\n', pos);
        const std::string line =
            stats_text.substr(pos, eol == std::string::npos
                                       ? std::string::npos
                                       : eol - pos);
        if (line.rfind(needle, 0) == 0)
            return std::stoull(line.substr(needle.size()));
        if (eol == std::string::npos)
            break;
        pos = eol + 1;
    }
    return 0;
}

ChaosVerdict
runChaos(const ChaosOptions &opts)
{
    namespace fs = std::filesystem;
    fs::create_directories(opts.dir);

    ChaosTally tally;
    {
        LockGuard lock(tally.mutex);
        tally.verdict.seed = opts.seed;
        tally.verdict.overloadDrill = opts.overloadDrill;
    }

    // Byte oracle first, while no fault plan is armed: direct
    // engine runs of every query the load will issue.
    const std::vector<ChaosQuery> queries = buildQueries(opts);

    // One daemon across every episode: recovery means the SAME
    // process keeps serving, not that a restart would.
    ServerOptions server_options = opts.server;
    server_options.socketPath = opts.dir + "/chaos.sock";
    server_options.cacheDir = opts.dir + "/cache";
    IcicleServer server(server_options);
    std::thread daemon([&server] { server.run(); });

    const bool inject =
        !opts.clean && !opts.overloadDrill;
    try {
        if (opts.overloadDrill) {
            // Pre-warm the daemon's cache over one uncontended
            // connection: the drill then measures the admission gate
            // under a hot-hit stampede, not a cold-simulation
            // convoy.
            ClientOptions warm_opts;
            warm_opts.attemptTimeoutMs = 30'000;
            ServeClient warm(server_options.socketPath, warm_opts);
            for (const ChaosQuery &cq : queries)
                warm.sweep(cq.query);
        }
        for (u32 episode = 0; episode < opts.episodes; episode++) {
            std::string spec;
            if (inject) {
                spec = episodeSpec(opts, episode);
                setFaultSpec(spec);
            }
            {
                LockGuard lock(tally.mutex);
                tally.verdict.episodeSpecs.push_back(spec);
            }

            std::vector<std::thread> threads;
            for (u32 t = 0; t < opts.clients; t++) {
                threads.emplace_back(
                    clientThread, std::cref(opts), episode, t,
                    std::cref(server_options.socketPath),
                    std::cref(queries), std::ref(tally));
            }
            for (std::thread &thread : threads)
                thread.join();

            // Episode over: disarm, then demand a clean ping from a
            // fresh connection — no injected fault may leave the
            // daemon wedged (CHAOS-003).
            setFaultSpec("");
            try {
                ClientOptions ping_opts;
                ping_opts.attemptTimeoutMs = 5'000;
                ping_opts.maxRetries = 2;
                ServeClient probe(server_options.socketPath,
                                  ping_opts);
                if (probe.ping("chaos") != "chaos")
                    fatal("ping payload mismatch");
            } catch (const FatalError &err) {
                LockGuard lock(tally.mutex);
                tally.verdict.recoveryFailures++;
                tally.verdict.failures.push_back(
                    "CHAOS-003: episode " + std::to_string(episode) +
                    ": daemon failed the post-episode ping: " +
                    err.what());
            }
        }

        // Final stats through the protocol (also exercises one last
        // clean exchange), then shutdown.
        ClientOptions final_opts;
        final_opts.attemptTimeoutMs = 5'000;
        ServeClient finalClient(server_options.socketPath,
                                final_opts);
        const std::string stats_text = finalClient.stats();
        {
            LockGuard lock(tally.mutex);
            tally.verdict.serverShedConns =
                statsValue(stats_text, "shed_conns");
            tally.verdict.serverShedRequests =
                statsValue(stats_text, "shed_requests");
            tally.verdict.serverWorkerRestarts =
                statsValue(stats_text, "worker_restarts");
        }
        finalClient.shutdown();
    } catch (...) {
        setFaultSpec("");
        server.stop();
        daemon.join();
        throw;
    }
    daemon.join();
    setFaultSpec("");

    LockGuard lock(tally.mutex);
    if (opts.overloadDrill &&
        tally.verdict.serverShedConns +
                tally.verdict.serverShedRequests ==
            0) {
        tally.verdict.failures.push_back(
            "CHAOS-004: overload drill saw zero sheds — the "
            "admission gate never engaged (clients=" +
            std::to_string(opts.clients) +
            " max_conns=" + std::to_string(opts.server.maxConns) + ")");
    }
    return tally.verdict;
}

LintReport
ChaosVerdict::toLintReport() const
{
    LintReport report;
    for (const std::string &failure : failures) {
        // Failures carry their rule id as a "CHAOS-00x: " prefix.
        const size_t colon = failure.find(':');
        const std::string rule = failure.substr(0, colon);
        report.add(rule.c_str(), Severity::Error,
                   failure.substr(colon + 2), "serve-chaos");
    }
    if (failures.empty()) {
        std::ostringstream os;
        os << "chaos drive clean: " << requestsOk << "/"
           << requestsIssued << " requests byte-identical ("
           << retries << " retries, " << shedsSeen << " sheds, "
           << timeouts << " timeouts absorbed)";
        report.add("CHAOS-000", Severity::Info, os.str(),
                   "serve-chaos");
    }
    return report;
}

std::string
ChaosVerdict::toJson() const
{
    std::ostringstream os;
    os << "{\n"
       << "  \"schema_version\": 1,\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"mode\": \""
       << (overloadDrill ? "overload" : "chaos") << "\",\n"
       << "  \"episode_specs\": [";
    for (size_t i = 0; i < episodeSpecs.size(); i++)
        os << (i ? ", " : "") << jsonQuote(episodeSpecs[i]);
    os << "],\n"
       << "  \"requests_issued\": " << requestsIssued << ",\n"
       << "  \"requests_ok\": " << requestsOk << ",\n"
       << "  \"wrong_bytes\": " << wrongBytes << ",\n"
       << "  \"client_failures\": " << clientFailures << ",\n"
       << "  \"recovery_failures\": " << recoveryFailures << ",\n"
       << "  \"attempts\": " << attempts << ",\n"
       << "  \"retries\": " << retries << ",\n"
       << "  \"sheds_seen\": " << shedsSeen << ",\n"
       << "  \"timeouts\": " << timeouts << ",\n"
       << "  \"server_shed_conns\": " << serverShedConns << ",\n"
       << "  \"server_shed_requests\": " << serverShedRequests
       << ",\n"
       << "  \"server_worker_restarts\": " << serverWorkerRestarts
       << ",\n"
       << "  \"failures\": [";
    for (size_t i = 0; i < failures.size(); i++)
        os << (i ? ", " : "") << jsonQuote(failures[i]);
    os << "],\n"
       << "  \"pass\": " << (pass() ? "true" : "false") << "\n"
       << "}\n";
    return os.str();
}

std::string
ChaosVerdict::format() const
{
    std::ostringstream os;
    os << (overloadDrill ? "overload drill" : "chaos drive")
       << " seed=" << seed << ": " << requestsOk << "/"
       << requestsIssued << " requests ok, " << retries
       << " retries, " << shedsSeen << " sheds seen, " << timeouts
       << " attempt timeouts, " << serverShedConns
       << " conns + " << serverShedRequests
       << " requests shed by the daemon, "
       << serverWorkerRestarts << " worker restarts\n";
    for (const std::string &failure : failures)
        os << "  FAIL " << failure << "\n";
    return os.str();
}

} // namespace icicle
