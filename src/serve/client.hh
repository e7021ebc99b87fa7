/**
 * @file
 * ServeClient: the blocking client side of the icicled protocol,
 * shared by the icicled CLI subcommands (sweep/window/stats/
 * shutdown/ping), icicle-bench-serve's load threads, icicle-chaos,
 * and tests.
 *
 * One client owns one persistent connection; requests are strictly
 * sequential per client (concurrent load uses one client per
 * thread). Every exchange runs under a per-attempt reply deadline
 * and a total deadline, and retries transparently on
 * idempotent-safe failures: connect refused mid-session, an
 * Overloaded shed notice, a torn/CRC-failed reply frame, EOF
 * mid-exchange, or an attempt timeout. Every request the daemon
 * serves is content-addressed and deterministic, so a replay can
 * only re-derive the same bytes — retrying is safe by construction
 * (Shutdown is the one exception and is never retried).
 *
 * Unrecoverable protocol violations and daemon-reported Error
 * frames raise FatalError, so CLI callers exit 2 through their
 * existing handler; exhausting the retry budget or the total
 * deadline raises FatalError carrying the last failure.
 */

#ifndef ICICLE_SERVE_CLIENT_HH
#define ICICLE_SERVE_CLIENT_HH

#include <string>

#include "serve/protocol.hh"

namespace icicle
{

/** Retry/deadline policy for one ServeClient. */
struct ClientOptions
{
    /**
     * Deadline on each attempt's reply frame (0 = wait forever).
     * Covers the whole frame, so a stalled or byte-trickling daemon
     * cannot hang the client past it.
     */
    u32 attemptTimeoutMs = 30'000;
    /** Deadline across all attempts of one exchange (0 = none). */
    u32 totalDeadlineMs = 120'000;
    /** Retry attempts after the first try. */
    u32 maxRetries = 4;
    /**
     * Seed for the deterministic backoff jitter (folded with the
     * attempt number), so replayed runs sleep identically.
     */
    u64 jitterSeed = 0;
};

class ServeClient
{
  public:
    /** Connects to the daemon's socket; fatal() if nothing listens. */
    explicit ServeClient(const std::string &socket_path,
                         const ClientOptions &options = {});
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Round-trips the payload through Ping/Pong; returns the echo. */
    std::string ping(const std::string &payload = "icicle");

    SweepReply sweep(const SweepQuery &query);

    WindowReply windowTma(const WindowQuery &query);

    /** The daemon's "key: value" stats block. */
    std::string stats();

    /** Ask the daemon to exit; returns once it acknowledges.
     * Never retried (the one non-idempotent-safe exchange). */
    void shutdown();

    // ---- robustness counters (cumulative over this client) -------

    /** Exchange attempts, including first tries. */
    u64 attempts() const { return attemptCount; }
    /** Attempts that were retries of a failed/shed attempt. */
    u64 retries() const { return retryCount; }
    /** Overloaded shed notices absorbed (and retried). */
    u64 shedsSeen() const { return shedCount; }
    /** Attempts that died on the per-attempt reply deadline. */
    u64 timeouts() const { return timeoutCount; }

  private:
    /** How one attempt ended. */
    enum class Attempt : u8
    {
        Ok,        ///< reply in hand
        Retriable, ///< idempotent-safe failure; retry may succeed
        Fatal,     ///< protocol violation or daemon Error frame
    };

    /** (Re)connect fd to socketPath; failure text in `failure`. */
    bool connectNow(std::string &failure);
    void disconnect();
    /** One request/reply attempt; no retries at this layer. */
    Attempt tryExchange(MsgType type, const std::string &payload,
                        MsgType expect, std::string &reply,
                        u32 &retryAfterMs, std::string &failure);
    /** Send request, read reply, demand `expect`; retries per the
     * options (Error frames and protocol violations raise). */
    std::string exchange(MsgType type, const std::string &payload,
                         MsgType expect);
    /** Capped exponential backoff with deterministic jitter. */
    u32 backoffDelayMs(u32 retry_index, u32 retry_after_hint);

    std::string socketPath;
    ClientOptions opts;
    int fd = -1;
    u64 attemptCount = 0;
    u64 retryCount = 0;
    u64 shedCount = 0;
    u64 timeoutCount = 0;
};

} // namespace icicle

#endif // ICICLE_SERVE_CLIENT_HH
