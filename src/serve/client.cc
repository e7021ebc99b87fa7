#include "serve/client.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"

namespace icicle
{

namespace
{

using ClientClock = std::chrono::steady_clock;

/** How long a failed request write waits for a pending shed notice. */
constexpr u32 kShedNoticeMs = 100;

/** First retry backoff; doubles per retry up to kBackoffCapMs. */
constexpr u64 kBackoffBaseMs = 25;
constexpr u64 kBackoffCapMs = 1'000;

} // namespace

ServeClient::ServeClient(const std::string &socket_path,
                         const ClientOptions &options)
    : socketPath(socket_path), opts(options)
{
    // A daemon death mid-exchange must surface as an error return,
    // not SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    // Construction stays fail-fast: "nothing listens" at startup is
    // an operator error ("is the daemon running?"), not a transient
    // the retry budget should paper over. Mid-session reconnects go
    // through the retry loop instead.
    std::string failure;
    if (!connectNow(failure))
        fatal(failure);
}

ServeClient::~ServeClient()
{
    disconnect();
}

bool
ServeClient::connectNow(std::string &failure)
{
    disconnect();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.empty() ||
        socketPath.size() >= sizeof(addr.sun_path))
        fatal("socket path '", socketPath,
              "' is empty or too long for a Unix socket");
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("cannot create client socket: ", errnoText(errno));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        disconnect();
        failure = "cannot connect to icicled at '" + socketPath +
                  "': " + errnoText(err) +
                  " (is the daemon running?)";
        return false;
    }
    return true;
}

void
ServeClient::disconnect()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

u32
ServeClient::backoffDelayMs(u32 retry_index, u32 retry_after_hint)
{
    // Exponential growth, capped; retry_index 0 is the first retry.
    u64 base = kBackoffBaseMs;
    for (u32 i = 0; i < retry_index && base < kBackoffCapMs; i++)
        base *= 2;
    base = std::min(base, kBackoffCapMs);
    // Deterministic jitter in [base/2, base]: seeded per (client,
    // retry), so a replayed run backs off identically while
    // concurrent clients still decorrelate.
    u64 delay = base;
    if (base >= 2) {
        Rng rng(opts.jitterSeed ^
                (attemptCount * 0x9e3779b97f4a7c15ull) ^
                (retry_index + 1));
        delay = base / 2 + rng.below(base / 2 + 1);
    }
    // A shed daemon's retry-after hint is a floor, not a cap: never
    // come back sooner than the daemon asked.
    return static_cast<u32>(std::max<u64>(delay, retry_after_hint));
}

ServeClient::Attempt
ServeClient::tryExchange(MsgType type, const std::string &payload,
                         MsgType expect, std::string &reply,
                         u32 &retryAfterMs, std::string &failure)
{
    retryAfterMs = 0;
    attemptCount++;
    if (fd < 0 && !connectNow(failure))
        return Attempt::Retriable;
    MsgType got;
    FrameRead read_result;
    if (writeFrame(fd, type, payload)) {
        read_result =
            readFrameDeadline(fd, got, reply, opts.attemptTimeoutMs);
    } else {
        // The accept gate writes its Overloaded notice and closes at
        // once, so the request write can fail with the notice still
        // unread on the socket: read it before calling the connection
        // lost, so the shed and its retry-after hint are honoured.
        read_result = readFrameDeadline(fd, got, reply, kShedNoticeMs);
        if (read_result != FrameRead::Ok || got != MsgType::Overloaded) {
            failure = "lost connection to icicled at '" + socketPath +
                      "' while sending a " +
                      std::string(msgTypeName(type)) + " request";
            disconnect();
            return Attempt::Retriable;
        }
    }
    if (read_result != FrameRead::Ok) {
        // EOF (daemon restarted / injected reset), a torn or
        // CRC-failed frame, and an attempt timeout are all
        // idempotent-safe: the request is content-addressed and
        // deterministic, so a replay re-derives the same bytes.
        if (read_result == FrameRead::Timeout) {
            timeoutCount++;
            failure = "timed out after " +
                      std::to_string(opts.attemptTimeoutMs) +
                      " ms awaiting a " +
                      std::string(msgTypeName(expect)) +
                      " reply from icicled at '" + socketPath + "'";
        } else {
            failure = "lost connection to icicled at '" +
                      socketPath + "' while awaiting a " +
                      std::string(msgTypeName(expect)) + " reply";
        }
        disconnect();
        return Attempt::Retriable;
    }
    if (got == MsgType::Overloaded) {
        shedCount++;
        OverloadNotice notice;
        if (decodeOverloadNotice(reply, notice))
            retryAfterMs = notice.retryAfterMs;
        failure = "icicled shed the request (overloaded: " +
                  (notice.reason.empty() ? "?" : notice.reason) +
                  ")";
        // The daemon shed this connection at accept or this request
        // at the queue; either way the connection is not worth
        // trusting for the next attempt.
        disconnect();
        return Attempt::Retriable;
    }
    if (got == MsgType::Error) {
        failure = "icicled: " + reply;
        return Attempt::Fatal;
    }
    if (got != expect) {
        failure = "icicled sent an unexpected " +
                  std::string(msgTypeName(got)) + " frame (wanted " +
                  std::string(msgTypeName(expect)) + ")";
        return Attempt::Fatal;
    }
    return Attempt::Ok;
}

std::string
ServeClient::exchange(MsgType type, const std::string &payload,
                      MsgType expect)
{
    // Shutdown is the one exchange whose replay is not
    // idempotent-safe to arbitrate (an ack lost to a reset is
    // indistinguishable from a daemon that exited): single attempt.
    const bool retriable_type = type != MsgType::Shutdown;
    const auto deadline =
        ClientClock::now() +
        std::chrono::milliseconds(opts.totalDeadlineMs);

    std::string reply;
    std::string failure;
    for (u32 retry = 0;; retry++) {
        u32 retry_after = 0;
        const Attempt outcome = tryExchange(type, payload, expect,
                                            reply, retry_after,
                                            failure);
        if (outcome == Attempt::Ok)
            return reply;
        if (outcome == Attempt::Fatal || !retriable_type ||
            retry >= opts.maxRetries)
            fatal(failure);
        const u32 delay = backoffDelayMs(retry, retry_after);
        if (opts.totalDeadlineMs != 0 &&
            ClientClock::now() +
                    std::chrono::milliseconds(delay) >=
                deadline)
            fatal(failure, " (total deadline of ",
                  opts.totalDeadlineMs, " ms exhausted after ",
                  retry + 1, " attempts)");
        retryCount++;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delay));
    }
}

std::string
ServeClient::ping(const std::string &payload)
{
    return exchange(MsgType::Ping, payload, MsgType::Pong);
}

SweepReply
ServeClient::sweep(const SweepQuery &query)
{
    const std::string raw = exchange(MsgType::SweepRequest,
                                     encodeSweepQuery(query),
                                     MsgType::SweepResponse);
    SweepReply reply;
    if (!decodeSweepReply(raw, reply))
        fatal("icicled sent a malformed sweep response");
    return reply;
}

WindowReply
ServeClient::windowTma(const WindowQuery &query)
{
    const std::string raw = exchange(MsgType::WindowTmaRequest,
                                     encodeWindowQuery(query),
                                     MsgType::WindowTmaResponse);
    WindowReply reply;
    if (!decodeWindowReply(raw, reply))
        fatal("icicled sent a malformed window-tma response");
    return reply;
}

std::string
ServeClient::stats()
{
    return exchange(MsgType::StatsRequest, "",
                    MsgType::StatsResponse);
}

void
ServeClient::shutdown()
{
    exchange(MsgType::Shutdown, "", MsgType::ShutdownAck);
}

} // namespace icicle
