/**
 * @file
 * The icicle-chaos harness: drives a live in-process icicled daemon
 * with concurrent client load under a seeded, randomized schedule of
 * network-level faults (connection resets, read/write stalls, torn
 * reply frames, worker kills — the serve-path sites in
 * fault/fault.hh), and checks the serving path's robustness
 * invariants:
 *
 *   CHAOS-001  every successful reply is byte-identical to direct
 *              icicle-sweep output over the same grid (a fault may
 *              delay or kill a reply, never corrupt one that the
 *              client accepts);
 *   CHAOS-002  every client request eventually succeeds within its
 *              total deadline — sheds and injected failures are
 *              absorbed by the client's retry/backoff policy;
 *   CHAOS-003  after every episode the disarmed daemon answers a
 *              clean ping (no fault leaves it wedged);
 *   CHAOS-004  the overload drill (more clients than --max-conns)
 *              observes at least one shed AND 100% eventual client
 *              success — the admission gate actually sheds, and
 *              shedding actually preserves availability.
 *
 * The whole run is deterministic in its inputs: the fault schedule
 * derives from one seed, client jitter is seeded per thread, and
 * every request is content-addressed — so a failing seed replays.
 * Thread interleaving still decides *which* request a given ordinal
 * lands on; the invariants are interleaving-independent on purpose.
 *
 * Exposed as a library so test_sync can run a miniature chaos drive
 * under the lock-order runtime and pin the serving locks' place in
 * the lock graph.
 */

#ifndef ICICLE_SERVE_CHAOS_HH
#define ICICLE_SERVE_CHAOS_HH

#include <string>
#include <vector>

#include "analysis/diagnostics.hh"
#include "common/types.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace icicle
{

struct ChaosOptions
{
    /** Working directory (socket, cache; created if needed). */
    std::string dir = "icicle-chaos.tmp";
    /** Master seed: fault schedule, query choice, client jitter. */
    u64 seed = 1;
    /** Fault episodes to run (each arms a fresh schedule). */
    u32 episodes = 2;
    /** Concurrent client threads per episode. */
    u32 clients = 3;
    /** Sweep requests per client per episode. */
    u32 requestsPerClient = 3;
    /** Simulated cycles per sweep point (small = fast episodes). */
    u64 maxCycles = 50'000;
    /**
     * The daemon's settings; its socket and cache go under `dir`.
     * Unlike icicled's, a connection that sends no complete frame
     * within 5 s is dropped.
     */
    ServerOptions server{.idleTimeoutMs = 5'000};
    /**
     * Every load client's retry policy; its jitter seed derives from
     * `seed`. Chaos's defaults: 2 s per attempt, 60 s per request,
     * 10 retries.
     */
    ClientOptions client{.attemptTimeoutMs = 2'000,
                         .totalDeadlineMs = 60'000,
                         .maxRetries = 10};
    /**
     * Run with no faults armed (baseline lane: the harness itself
     * must pass clean before its verdicts on faulty lanes count).
     */
    bool clean = false;
    /**
     * Overload drill: no injected faults; more clients than
     * maxConns hammer warm requests, and the verdict requires >= 1
     * shed plus 100% eventual success (CHAOS-004).
     */
    bool overloadDrill = false;
};

/** Everything the run observed, plus the pass/fail verdict. */
struct ChaosVerdict
{
    u64 seed = 0;
    bool overloadDrill = false;
    /** Fault spec armed per episode ("" for clean/overload lanes). */
    std::vector<std::string> episodeSpecs;

    u64 requestsIssued = 0;
    u64 requestsOk = 0;
    /** CHAOS-001 violations: accepted replies with wrong bytes. */
    u64 wrongBytes = 0;
    /** CHAOS-002 violations: requests that never succeeded. */
    u64 clientFailures = 0;
    /** CHAOS-003 violations: post-episode pings that failed. */
    u64 recoveryFailures = 0;

    /** Client-side robustness counters (summed over all clients). */
    u64 attempts = 0;
    u64 retries = 0;
    u64 shedsSeen = 0;
    u64 timeouts = 0;
    /** Daemon-side counters from its final stats block. */
    u64 serverShedConns = 0;
    u64 serverShedRequests = 0;
    u64 serverWorkerRestarts = 0;

    /** Human-readable description of each violation. */
    std::vector<std::string> failures;

    bool pass() const { return failures.empty(); }

    /** CHAOS-00x findings (errors) plus a summary note. */
    LintReport toLintReport() const;
    /** Machine-readable verdict (schema_version 1). */
    std::string toJson() const;
    /** Multi-line human rendering. */
    std::string format() const;
};

/**
 * Run the configured chaos (or overload) drive against a live
 * in-process daemon. fatal() only on harness setup errors; fault
 * and overload outcomes land in the verdict.
 */
ChaosVerdict runChaos(const ChaosOptions &options);

/** Parse one "key: value" line of a daemon stats block (0 when
 * absent) — shared with the bench harness. */
u64 statsValue(const std::string &stats_text,
               const std::string &key);

} // namespace icicle

#endif // ICICLE_SERVE_CHAOS_HH
