#include "serve/protocol.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <unistd.h>

#include "common/crc32.hh"
#include "common/wire.hh"
#include "fault/atomic_file.hh"
#include "sweep/journal.hh"

namespace icicle
{

namespace
{

using ProtoClock = std::chrono::steady_clock;

/**
 * 1 = ok, 0 = EOF before any byte, -1 = short read / error,
 * -2 = `deadline` (when non-null) expired before `size` bytes.
 */
int
readAll(int fd, unsigned char *data, size_t size,
        const ProtoClock::time_point *deadline = nullptr)
{
    size_t got = 0;
    while (got < size) {
        if (deadline) {
            const auto remaining =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    *deadline - ProtoClock::now())
                    .count();
            if (remaining <= 0)
                return -2;
            struct pollfd pfd = {fd, POLLIN, 0};
            const int ready =
                ::poll(&pfd, 1, static_cast<int>(remaining));
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                return -1;
            }
            if (ready == 0)
                return -2;
        }
        const ssize_t n = ::read(fd, data + got, size - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (n == 0)
            return got == 0 ? 0 : -1;
        got += static_cast<size_t>(n);
    }
    return 1;
}

} // namespace

const char *
msgTypeName(MsgType type)
{
    switch (type) {
      case MsgType::Ping: return "ping";
      case MsgType::Pong: return "pong";
      case MsgType::SweepRequest: return "sweep-request";
      case MsgType::SweepResponse: return "sweep-response";
      case MsgType::WindowTmaRequest: return "window-tma-request";
      case MsgType::WindowTmaResponse: return "window-tma-response";
      case MsgType::StatsRequest: return "stats-request";
      case MsgType::StatsResponse: return "stats-response";
      case MsgType::Shutdown: return "shutdown";
      case MsgType::ShutdownAck: return "shutdown-ack";
      case MsgType::Error: return "error";
      case MsgType::JobRequest: return "job-request";
      case MsgType::JobResponse: return "job-response";
      case MsgType::Overloaded: return "overloaded";
    }
    return "unknown";
}

std::string
encodeFrame(MsgType type, const std::string &payload)
{
    std::string frame;
    wire::put32(frame, kServeMagic);
    wire::put8(frame, static_cast<u8>(type));
    wire::put32(frame, static_cast<u32>(payload.size()));
    frame += payload;
    wire::put32(frame, crc32(payload.data(), payload.size()));
    return frame;
}

bool
writeFrame(int fd, MsgType type, const std::string &payload)
{
    const std::string frame = encodeFrame(type, payload);
    return writeAll(fd, frame.data(), frame.size());
}

bool
writeRaw(int fd, const std::string &data, size_t bytes)
{
    return writeAll(fd, data.data(), std::min(bytes, data.size()));
}

FrameRead
readFrame(int fd, MsgType &type, std::string &payload)
{
    return readFrameDeadline(fd, type, payload, 0);
}

FrameRead
readFrameDeadline(int fd, MsgType &type, std::string &payload,
                  u32 timeoutMs)
{
    ProtoClock::time_point deadline_storage;
    const ProtoClock::time_point *deadline = nullptr;
    if (timeoutMs > 0) {
        deadline_storage = ProtoClock::now() +
                           std::chrono::milliseconds(timeoutMs);
        deadline = &deadline_storage;
    }

    unsigned char header[9];
    const int head = readAll(fd, header, sizeof(header), deadline);
    if (head == 0)
        return FrameRead::Eof;
    if (head == -2)
        return FrameRead::Timeout;
    if (head < 0)
        return FrameRead::Error;

    u32 magic, length;
    std::memcpy(&magic, header, 4);
    std::memcpy(&length, header + 5, 4);
    if (magic != kServeMagic || length > kServeMaxPayload)
        return FrameRead::Error;
    const u8 raw_type = header[4];
    if (raw_type < static_cast<u8>(MsgType::Ping) ||
        raw_type > static_cast<u8>(MsgType::Overloaded))
        return FrameRead::Error;

    std::vector<unsigned char> body(static_cast<size_t>(length) + 4);
    const int rest = readAll(fd, body.data(), body.size(), deadline);
    if (rest == -2)
        return FrameRead::Timeout;
    if (rest != 1)
        return FrameRead::Error;
    u32 stored_crc;
    std::memcpy(&stored_crc, body.data() + length, 4);
    if (crc32(body.data(), length) != stored_crc)
        return FrameRead::Error;

    type = static_cast<MsgType>(raw_type);
    payload.assign(reinterpret_cast<const char *>(body.data()),
                   length);
    return FrameRead::Ok;
}

// ---- message payloads ----------------------------------------------

std::string
encodeSweepQuery(const SweepQuery &query)
{
    using namespace wire;
    std::string p;
    put32(p, kServeProtocolVersion);
    put32(p, static_cast<u32>(query.cores.size()));
    for (const std::string &core : query.cores)
        putStr(p, core);
    put32(p, static_cast<u32>(query.workloads.size()));
    for (const std::string &workload : query.workloads)
        putStr(p, workload);
    put32(p, static_cast<u32>(query.archs.size()));
    for (CounterArch arch : query.archs)
        put8(p, static_cast<u8>(arch));
    put64(p, query.maxCycles);
    put64(p, query.seed);
    putStr(p, query.format);
    return p;
}

bool
decodeSweepQuery(const std::string &payload, SweepQuery &query)
{
    wire::Cursor cur{
        reinterpret_cast<const unsigned char *>(payload.data()),
        payload.size()};
    query = SweepQuery{};
    query.archs.clear();
    if (cur.get32() != kServeProtocolVersion)
        return false;
    // An adversarial count cannot overrun: every element read is
    // bounds-checked, so a huge count just flips cur.ok.
    for (u32 n = cur.get32(); n > 0 && cur.ok; n--)
        query.cores.push_back(cur.getStr());
    for (u32 n = cur.get32(); n > 0 && cur.ok; n--)
        query.workloads.push_back(cur.getStr());
    for (u32 n = cur.get32(); n > 0 && cur.ok; n--) {
        const u8 arch = cur.get8();
        if (arch > static_cast<u8>(CounterArch::Distributed))
            return false;
        query.archs.push_back(static_cast<CounterArch>(arch));
    }
    query.maxCycles = cur.get64();
    query.seed = cur.get64();
    query.format = cur.getStr();
    return cur.atEnd();
}

std::string
encodeSweepReply(const SweepReply &reply)
{
    using namespace wire;
    std::string p;
    putStr(p, reply.report);
    put32(p, reply.points);
    put32(p, reply.cacheHits);
    put32(p, reply.simulated);
    put8(p, reply.allOk ? 1 : 0);
    return p;
}

bool
decodeSweepReply(const std::string &payload, SweepReply &reply)
{
    wire::Cursor cur{
        reinterpret_cast<const unsigned char *>(payload.data()),
        payload.size()};
    reply = SweepReply{};
    reply.report = cur.getStr();
    reply.points = cur.get32();
    reply.cacheHits = cur.get32();
    reply.simulated = cur.get32();
    reply.allOk = cur.get8() != 0;
    return cur.atEnd();
}

std::string
encodeWindowQuery(const WindowQuery &query)
{
    using namespace wire;
    std::string p;
    putStr(p, query.storePath);
    put64(p, query.begin);
    put64(p, query.end);
    put32(p, query.coreWidth);
    return p;
}

bool
decodeWindowQuery(const std::string &payload, WindowQuery &query)
{
    wire::Cursor cur{
        reinterpret_cast<const unsigned char *>(payload.data()),
        payload.size()};
    query = WindowQuery{};
    query.storePath = cur.getStr();
    query.begin = cur.get64();
    query.end = cur.get64();
    query.coreWidth = cur.get32();
    return cur.atEnd();
}

std::string
encodeWindowReply(const WindowReply &reply)
{
    std::string p;
    putTmaResult(p, reply.tma);
    wire::put64(p, reply.blocksDecoded);
    return p;
}

bool
decodeWindowReply(const std::string &payload, WindowReply &reply)
{
    wire::Cursor cur{
        reinterpret_cast<const unsigned char *>(payload.data()),
        payload.size()};
    reply = WindowReply{};
    getTmaResult(cur, reply.tma);
    reply.blocksDecoded = cur.get64();
    return cur.atEnd();
}

std::string
encodeJobRequest(const JobRequest &request)
{
    using namespace wire;
    std::string p;
    putStr(p, request.point.core);
    putStr(p, request.point.workload);
    put64(p, request.point.maxCycles);
    put8(p, request.point.withTrace ? 1 : 0);
    put64(p, request.seed);
    return p;
}

bool
decodeJobRequest(const std::string &payload, JobRequest &request)
{
    wire::Cursor cur{
        reinterpret_cast<const unsigned char *>(payload.data()),
        payload.size()};
    request = JobRequest{};
    request.point.core = cur.getStr();
    request.point.workload = cur.getStr();
    request.point.maxCycles = cur.get64();
    request.point.withTrace = cur.get8() != 0;
    request.seed = cur.get64();
    return cur.atEnd();
}

std::string
encodeJobReply(const JobReply &reply)
{
    using namespace wire;
    std::string p;
    put8(p, reply.ok ? 1 : 0);
    putStr(p, reply.error);
    putStr(p, encodeSweepResult(reply.result));
    return p;
}

bool
decodeJobReply(const std::string &payload, JobReply &reply)
{
    wire::Cursor cur{
        reinterpret_cast<const unsigned char *>(payload.data()),
        payload.size()};
    reply = JobReply{};
    reply.ok = cur.get8() != 0;
    reply.error = cur.getStr();
    const std::string result = cur.getStr();
    // Workers set the result's index to 0, so it decodes as the one
    // result of a one-point grid.
    return cur.atEnd() &&
           decodeSweepResult(
               reinterpret_cast<const unsigned char *>(result.data()),
               result.size(), 1, reply.result);
}

std::string
encodeOverloadNotice(const OverloadNotice &notice)
{
    using namespace wire;
    std::string p;
    put32(p, notice.retryAfterMs);
    putStr(p, notice.reason);
    return p;
}

bool
decodeOverloadNotice(const std::string &payload,
                     OverloadNotice &notice)
{
    wire::Cursor cur{
        reinterpret_cast<const unsigned char *>(payload.data()),
        payload.size()};
    notice = OverloadNotice{};
    notice.retryAfterMs = cur.get32();
    notice.reason = cur.getStr();
    return cur.atEnd();
}

} // namespace icicle
