/**
 * @file
 * The icicled wire protocol: length-prefixed, CRC-guarded frames
 * over a local stream socket (and, with the same framing, over the
 * daemon<->worker pipes).
 *
 * Frame layout (all integers little-endian, DESIGN.md §14):
 *
 *   u32 magic     kServeMagic ("ICRQ")
 *   u8  type      MsgType
 *   u32 length    payload bytes (<= kServeMaxPayload)
 *   ...           payload (wire.hh encoding per message type)
 *   u32 crc       CRC32 of the payload bytes
 *
 * Every exchange is strict request/response on one connection; a
 * client may pipeline sequential requests over a persistent
 * connection. A frame that fails magic, bounds, or CRC validation is
 * a protocol error: the server drops the connection (never trusts
 * the rest of the stream), the client raises FatalError.
 *
 * Payload encodings deliberately reuse the sweep-journal result
 * codec (encodeSweepResult): a SweepResult that travels
 * worker -> daemon -> cache -> response is bit-identical at every
 * hop, which is what makes cached replies byte-identical to direct
 * icicle-sweep output.
 */

#ifndef ICICLE_SERVE_PROTOCOL_HH
#define ICICLE_SERVE_PROTOCOL_HH

#include <string>
#include <vector>

#include "sweep/sweep.hh"

namespace icicle
{

constexpr u32 kServeMagic = 0x51524349; // "ICRQ"
constexpr u32 kServeProtocolVersion = 1;
/** Reports over full SPEC grids stay far below this. */
constexpr u32 kServeMaxPayload = 64u << 20;

/** Frame types. Requests are odd, their responses follow evenly. */
enum class MsgType : u8
{
    Ping = 1,
    Pong = 2,
    SweepRequest = 3,
    SweepResponse = 4,
    WindowTmaRequest = 5,
    WindowTmaResponse = 6,
    StatsRequest = 7,
    StatsResponse = 8,
    Shutdown = 9,
    ShutdownAck = 10,
    /** Response-only: payload is a human-readable message. */
    Error = 11,
    /** Pipe-only: daemon -> worker job dispatch. */
    JobRequest = 12,
    /** Pipe-only: worker -> daemon job outcome. */
    JobResponse = 13,
    /**
     * Response-only: the daemon shed this request at the admission
     * gate. Payload carries a retry-after-ms hint; the request was
     * not executed, so retrying it is always safe.
     */
    Overloaded = 14,
};

const char *msgTypeName(MsgType type);

/** Outcome of readFrame: distinguishes clean EOF from corruption. */
enum class FrameRead : u8
{
    Ok,
    Eof,     ///< the peer closed before any frame byte
    Error,   ///< short read mid-frame, bad magic/bounds, CRC mismatch
    Timeout, ///< deadline expired (readFrameDeadline only)
};

/**
 * Render one complete frame (header + payload + CRC) to a buffer.
 * Exposed so fault injection can write deliberate frame prefixes.
 */
std::string encodeFrame(MsgType type, const std::string &payload);

/** Write one frame; false on any write error (e.g. EPIPE). */
bool writeFrame(int fd, MsgType type, const std::string &payload);

/** Write the first `bytes` bytes of raw data; false on error. */
bool writeRaw(int fd, const std::string &data, size_t bytes);

/** Read one full frame, validating magic, bounds, and CRC. */
FrameRead readFrame(int fd, MsgType &type, std::string &payload);

/**
 * readFrame with a deadline: Timeout when the whole frame has not
 * arrived within `timeoutMs` (0 = wait forever). The deadline covers
 * the full frame, so a peer trickling bytes cannot stall the caller
 * past it.
 */
FrameRead readFrameDeadline(int fd, MsgType &type,
                            std::string &payload, u32 timeoutMs);

// ---- message payloads ----------------------------------------------

/**
 * A sweep request: the same declarative grid icicle-sweep expands,
 * plus a seed folded into every point's cache key (reserved for
 * seeded workload variants; today it only partitions the cache) and
 * the output format. Traces are not captured through the daemon.
 */
struct SweepQuery
{
    std::vector<std::string> cores;
    std::vector<std::string> workloads;
    std::vector<CounterArch> archs{CounterArch::AddWires};
    u64 maxCycles = 80'000'000;
    u64 seed = 0;
    /** "text" | "csv" | "json", as icicle-sweep --format. */
    std::string format = "text";
};

std::string encodeSweepQuery(const SweepQuery &query);
bool decodeSweepQuery(const std::string &payload, SweepQuery &query);

/** The daemon's answer to a SweepQuery. */
struct SweepReply
{
    /** Rendered report, byte-identical to icicle-sweep stdout. */
    std::string report;
    u32 points = 0;
    u32 cacheHits = 0;
    u32 simulated = 0;
    /** Mirrors the CLI exit status: every point Ok. */
    bool allOk = true;
};

std::string encodeSweepReply(const SweepReply &reply);
bool decodeSweepReply(const std::string &payload, SweepReply &reply);

/** Windowed temporal TMA over a cached .icst store. */
struct WindowQuery
{
    std::string storePath;
    u64 begin = 0;
    u64 end = 0;
    u32 coreWidth = 1;
};

std::string encodeWindowQuery(const WindowQuery &query);
bool decodeWindowQuery(const std::string &payload,
                       WindowQuery &query);

/** Bit-exact TMA result plus the decode-cost evidence. */
struct WindowReply
{
    TmaResult tma;
    /** Blocks the reader decoded to answer (footer-query proof). */
    u64 blocksDecoded = 0;
};

std::string encodeWindowReply(const WindowReply &reply);
bool decodeWindowReply(const std::string &payload,
                       WindowReply &reply);

/**
 * One job dispatched to a worker process (pipe frames): the run of
 * `point` — its (core, workload) at its cycle budget, under every
 * counter architecture. The frame carries no architecture: the
 * worker simulates the run once and answers with the one result
 * every architecture shares.
 */
struct JobRequest
{
    SweepPoint point;
    u64 seed = 0;
};

std::string encodeJobRequest(const JobRequest &request);
bool decodeJobRequest(const std::string &payload,
                      JobRequest &request);

/**
 * A worker's outcome: the run's full SweepResult (index 0, as a
 * one-point grid would give) or a hard error.
 */
struct JobReply
{
    bool ok = false;
    std::string error;
    SweepResult result;
};

std::string encodeJobReply(const JobReply &reply);
bool decodeJobReply(const std::string &payload, JobReply &reply);

/** The admission gate's shed notice. */
struct OverloadNotice
{
    /** Client backoff hint before retrying (milliseconds). */
    u32 retryAfterMs = 0;
    /** What was saturated: "conns" or "queue". */
    std::string reason;
};

std::string encodeOverloadNotice(const OverloadNotice &notice);
bool decodeOverloadNotice(const std::string &payload,
                          OverloadNotice &notice);

} // namespace icicle

#endif // ICICLE_SERVE_PROTOCOL_HH
