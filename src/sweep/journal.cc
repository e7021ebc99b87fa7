#include "sweep/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "common/wire.hh"
#include "fault/atomic_file.hh"

namespace icicle
{

namespace
{

constexpr u64 kJournalHeaderBytes = 4 + 4 + 4 + 8;
/** Upper bound on one record: catches garbage length prefixes. */
constexpr u64 kMaxRecordBytes = 1u << 20;

/** "0x%08x" — grid hashes render in hex everywhere they appear. */
std::string
hex32(u32 v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08x", v);
    return buf;
}

} // namespace

void
putTmaResult(std::string &buf, const TmaResult &t)
{
    for (double v : {t.retiring, t.badSpeculation, t.frontend,
                     t.backend, t.machineClears, t.branchMispredicts,
                     t.resteers, t.recoveryBubbles, t.fetchLatency,
                     t.pcResteer, t.coreBound, t.memBound,
                     t.memBoundL2, t.memBoundDram, t.ipc})
        wire::putF64(buf, v);
    wire::put64(buf, t.totalSlots);
    wire::put64(buf, t.cycles);
}

void
getTmaResult(wire::Cursor &cur, TmaResult &t)
{
    for (double *v : {&t.retiring, &t.badSpeculation, &t.frontend,
                      &t.backend, &t.machineClears,
                      &t.branchMispredicts, &t.resteers,
                      &t.recoveryBubbles, &t.fetchLatency,
                      &t.pcResteer, &t.coreBound, &t.memBound,
                      &t.memBoundL2, &t.memBoundDram, &t.ipc})
        *v = cur.getF64();
    t.totalSlots = cur.get64();
    t.cycles = cur.get64();
}

std::string
encodeSweepResult(const SweepResult &r)
{
    using namespace wire;
    std::string p;
    put64(p, r.index);
    p.push_back(static_cast<char>(r.status));
    put32(p, r.attempts);
    put64(p, r.cycles);
    p.push_back(r.finished ? 1 : 0);
    put64(p, r.exitCode);
    putF64(p, r.ipc);
    put64(p, r.recoverySequences);
    putF64(p, r.overlapFraction);

    putTmaResult(p, r.tma);

    const TmaCounters &c = r.counters;
    for (u64 v : {c.cycles, c.retiredUops, c.issuedUops,
                  c.fetchBubbles, c.recovering, c.branchMispredicts,
                  c.machineClears, c.fencesRetired, c.icacheBlocked,
                  c.dcacheBlocked, c.dcacheBlockedDram})
        put64(p, v);

    putStr(p, r.error);
    putStr(p, r.traceStore);
    putStr(p, r.traceSkipped);
    return p;
}

bool
decodeSweepResult(const unsigned char *data, u64 size, u64 num_jobs,
                  SweepResult &r)
{
    wire::Cursor cur{data, size};
    r = SweepResult{};
    r.index = cur.get64();
    const u8 status = cur.get8();
    r.attempts = cur.get32();
    r.cycles = cur.get64();
    r.finished = cur.get8() != 0;
    r.exitCode = cur.get64();
    r.ipc = cur.getF64();
    r.recoverySequences = cur.get64();
    r.overlapFraction = cur.getF64();

    getTmaResult(cur, r.tma);

    TmaCounters &c = r.counters;
    for (u64 *v : {&c.cycles, &c.retiredUops, &c.issuedUops,
                   &c.fetchBubbles, &c.recovering,
                   &c.branchMispredicts, &c.machineClears,
                   &c.fencesRetired, &c.icacheBlocked,
                   &c.dcacheBlocked, &c.dcacheBlockedDram})
        *v = cur.get64();

    r.error = cur.getStr();
    r.traceStore = cur.getStr();
    r.traceSkipped = cur.getStr();

    if (!cur.atEnd())
        return false;
    if (r.index >= num_jobs || status > 2)
        return false;
    r.status = static_cast<SweepStatus>(status);
    return true;
}

u32
sweepGridHash(const std::vector<SweepJob> &jobs)
{
    std::string blob;
    wire::put64(blob, jobs.size());
    for (const SweepJob &job : jobs) {
        blob += job.label;
        blob.push_back('\0');
        wire::put64(blob, job.maxCycles);
        blob.push_back(job.withTrace ? 1 : 0);
    }
    return crc32(blob.data(), blob.size());
}

SweepJournal::~SweepJournal()
{
    close();
}

void
SweepJournal::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

void
SweepJournal::create(const std::string &path, u32 grid_hash,
                     u64 num_jobs)
{
    close();
    filePath = path;
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        fatal("cannot create sweep journal '", path, "': ",
              errnoText(errno));
    std::string header;
    wire::put32(header, kJournalMagic);
    wire::put32(header, kJournalVersion);
    wire::put32(header, grid_hash);
    wire::put64(header, num_jobs);
    if (!writeAll(fd, header.data(), header.size()) ||
        ::fsync(fd) != 0)
        fatal("cannot write sweep journal '", path, "': ",
              errnoText(errno));
}

std::vector<SweepResult>
SweepJournal::resume(const std::string &path, u32 grid_hash,
                     u64 num_jobs)
{
    close();
    filePath = path;

    const int rfd = ::open(path.c_str(), O_RDONLY);
    if (rfd < 0) {
        if (errno == ENOENT) {
            // Nothing to resume yet: behave like a fresh run.
            create(path, grid_hash, num_jobs);
            return {};
        }
        fatal("cannot open sweep journal '", path, "': ",
              errnoText(errno));
    }
    std::string raw;
    char chunk[65536];
    for (;;) {
        const ssize_t n = ::read(rfd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(rfd);
            fatal("cannot read sweep journal '", path, "': ",
                  errnoText(errno));
        }
        if (n == 0)
            break;
        raw.append(chunk, static_cast<size_t>(n));
    }
    ::close(rfd);

    if (raw.size() < kJournalHeaderBytes)
        fatal("sweep journal '", path,
              "' is truncated before its header");
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(raw.data());
    u32 magic, version, stored_hash;
    u64 stored_jobs;
    std::memcpy(&magic, bytes, 4);
    std::memcpy(&version, bytes + 4, 4);
    std::memcpy(&stored_hash, bytes + 8, 4);
    std::memcpy(&stored_jobs, bytes + 12, 8);
    if (magic != kJournalMagic)
        fatal("'", path, "' is not a sweep journal");
    if (version != kJournalVersion)
        fatal("sweep journal '", path, "' has unsupported version ",
              version);
    if (stored_hash != grid_hash || stored_jobs != num_jobs)
        fatal("sweep journal '", path, "' was written for a "
              "different grid: journal has ", stored_jobs,
              " jobs with grid hash ", hex32(stored_hash),
              ", this campaign has ", num_jobs,
              " jobs with grid hash ", hex32(grid_hash),
              "; refusing to resume");

    // Replay intact records; stop at the first torn/corrupt one and
    // truncate it away so appends continue from a clean tail.
    std::vector<SweepResult> results;
    u64 pos = kJournalHeaderBytes;
    u64 last_good = pos;
    while (pos + 8 <= raw.size()) {
        u32 len;
        std::memcpy(&len, bytes + pos, 4);
        if (len == 0 || len > kMaxRecordBytes ||
            pos + 4 + len + 4 > raw.size())
            break;
        u32 stored_crc;
        std::memcpy(&stored_crc, bytes + pos + 4 + len, 4);
        if (crc32(bytes + pos + 4, len) != stored_crc)
            break;
        SweepResult result;
        if (!decodeSweepResult(bytes + pos + 4, len, num_jobs,
                               result))
            break;
        results.push_back(std::move(result));
        pos += 4 + static_cast<u64>(len) + 4;
        last_good = pos;
    }
    if (last_good < raw.size())
        warn("sweep journal '", path, "': dropping ",
             raw.size() - last_good, " torn tail bytes");

    fd = ::open(path.c_str(), O_WRONLY, 0644);
    if (fd < 0)
        fatal("cannot reopen sweep journal '", path, "': ",
              errnoText(errno));
    if (::ftruncate(fd, static_cast<off_t>(last_good)) != 0)
        fatal("cannot truncate sweep journal '", path, "': ",
              errnoText(errno));
    if (::lseek(fd, 0, SEEK_END) < 0)
        fatal("cannot seek sweep journal '", path, "': ",
              errnoText(errno));
    return results;
}

void
SweepJournal::append(const SweepResult &result)
{
    if (fd < 0)
        return;
    const std::string payload = encodeSweepResult(result);
    std::string record;
    wire::put32(record, static_cast<u32>(payload.size()));
    record += payload;
    wire::put32(record, crc32(payload.data(), payload.size()));

    switch (faultPlan().onWrite(FaultSite::JournalWrite)) {
      case FaultPlan::WriteAction::None:
        break;
      case FaultPlan::WriteAction::Short:
        writeAll(fd, record.data(), record.size() / 2);
        ::fsync(fd);
        fatal("sweep journal '", filePath,
              "': injected short write");
      case FaultPlan::WriteAction::Enospc:
        fatal("sweep journal '", filePath,
              "': injected write failure: ",
              errnoText(ENOSPC));
      case FaultPlan::WriteAction::Kill:
        // A crash mid-append: half a record lands, resume drops it.
        writeAll(fd, record.data(), record.size() / 2);
        ::fsync(fd);
        std::_Exit(137);
    }

    if (!writeAll(fd, record.data(), record.size()) ||
        ::fsync(fd) != 0)
        fatal("cannot append to sweep journal '", filePath, "': ",
              errnoText(errno));
}

} // namespace icicle
