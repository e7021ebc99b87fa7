/**
 * @file
 * Crash-atomic file output.
 *
 * Every artifact the toolchain produces (.icst stores, sweep CSV/JSON
 * reports, salvage reports) is written through an AtomicFile: bytes
 * go to `path.tmp`, are fsync'd, and the tmp is renamed over `path`
 * (then the directory is fsync'd). A reader can
 * therefore never observe a partial artifact — it sees either the old
 * file or the complete new one, even across SIGKILL or power loss.
 *
 * The writer is also the enforcement point for fault injection: each
 * flush consults the global FaultPlan for its site, so short writes,
 * ENOSPC, and mid-write kills land at reproducible byte positions.
 *
 * The sweep journal is the one artifact NOT written this way: it is
 * append-only by design and protects itself with per-record CRCs
 * instead (a torn tail is detected and dropped on resume).
 */

#ifndef ICICLE_FAULT_ATOMIC_FILE_HH
#define ICICLE_FAULT_ATOMIC_FILE_HH

#include <string>

#include "common/types.hh"
#include "fault/fault.hh"

namespace icicle
{

/**
 * Buffered writer committing via tmp + fsync + rename. fatal()s (a
 * catchable FatalError) on any I/O failure, after unlinking the tmp.
 */
class AtomicFile
{
  public:
    AtomicFile(const std::string &path, FaultSite site);
    ~AtomicFile();

    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    void append(const void *data, size_t size);

    void
    append(const std::string &bytes)
    {
        append(bytes.data(), bytes.size());
    }

    /** Bytes buffered or flushed so far (the logical file offset). */
    u64 size() const { return bytesWritten + buffer.size(); }

    /**
     * Drop everything past `size` logical bytes. Only valid before
     * any flush has happened (i.e. while all bytes are still
     * buffered); used by the store writer to tear its final block.
     */
    void truncateTo(u64 size);

    /** Flush, fsync, rename into place, fsync the directory. */
    void commit();

    /** Abandon the output and remove the tmp file. */
    void discard();

    bool committed() const { return done; }

    const std::string &targetPath() const { return path; }

  private:
    void flushBuffer();
    void fail(const char *what, int err);

    std::string path;
    std::string tmpPath;
    FaultSite site;
    int fd = -1;
    bool done = false;
    std::string buffer;
    u64 bytesWritten = 0;
};

/**
 * The full write(2) loop (EINTR retried, short writes continued) every
 * raw fd writer in the tree uses. False with errno set on failure.
 */
bool writeAll(int fd, const char *data, size_t size);

/** Write a whole report/blob atomically in one call. */
void writeFileAtomic(const std::string &path, const std::string &bytes,
                     FaultSite site);

/** Copy the file at `from` to `path` atomically, a chunk at a time. */
void copyFileAtomic(const std::string &from, const std::string &path,
                    FaultSite site);

} // namespace icicle

#endif // ICICLE_FAULT_ATOMIC_FILE_HH
