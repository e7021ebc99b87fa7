#include "fault/atomic_file.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"

namespace icicle
{

namespace
{

/// Buffered bytes per write(2); also the granularity fault-injected
/// short writes and kills land on.
constexpr size_t kFlushBytes = 1u << 20;

std::string
dirOf(const std::string &path)
{
    const auto slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

} // namespace

bool
writeAll(int fd, const char *data, size_t size)
{
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        size -= static_cast<size_t>(n);
    }
    return true;
}

AtomicFile::AtomicFile(const std::string &path, FaultSite site)
    : path(path), tmpPath(path + ".tmp"), site(site)
{
    fd = ::open(tmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        fatal("cannot create '", tmpPath, "': ", errnoText(errno));
}

AtomicFile::~AtomicFile()
{
    if (done)
        return;
    if (fd >= 0)
        warn("atomic file '", path, "' destroyed without commit; "
             "discarding tmp");
    discard();
}

void
AtomicFile::fail(const char *what, int err)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    ::unlink(tmpPath.c_str());
    done = true;
    fatal("writing '", path, "': ", what, ": ", errnoText(err));
}

void
AtomicFile::flushBuffer()
{
    if (buffer.empty())
        return;

    switch (faultPlan().onWrite(site)) {
      case FaultPlan::WriteAction::None:
        break;
      case FaultPlan::WriteAction::Short:
        // Half the bytes reach the media, then the device errors.
        writeAll(fd, buffer.data(), buffer.size() / 2);
        ::fsync(fd);
        fail("injected short write", EIO);
        break;
      case FaultPlan::WriteAction::Enospc:
        fail("injected write failure", ENOSPC);
        break;
      case FaultPlan::WriteAction::Kill:
        // Simulate a crash mid-write: half the bytes land, then the
        // process dies without unwinding. The tmp file is left
        // behind, exactly as a real SIGKILL would.
        writeAll(fd, buffer.data(), buffer.size() / 2);
        ::fsync(fd);
        std::_Exit(137);
    }

    if (!writeAll(fd, buffer.data(), buffer.size()))
        fail("write failed", errno);
    bytesWritten += buffer.size();
    buffer.clear();
}

void
AtomicFile::append(const void *data, size_t size)
{
    if (done || fd < 0)
        fatal("append to closed atomic file '", path, "'");
    buffer.append(static_cast<const char *>(data), size);
    if (buffer.size() >= kFlushBytes)
        flushBuffer();
}

void
AtomicFile::truncateTo(u64 size)
{
    if (bytesWritten != 0)
        panic("AtomicFile::truncateTo after flush (", bytesWritten,
              " bytes already written)");
    if (size > buffer.size())
        panic("AtomicFile::truncateTo(", size, ") past end (",
              buffer.size(), ")");
    buffer.resize(size);
}

void
AtomicFile::commit()
{
    if (done || fd < 0)
        fatal("commit of closed atomic file '", path, "'");
    flushBuffer();
    if (::fsync(fd) != 0)
        fail("fsync failed", errno);
    if (::close(fd) != 0) {
        fd = -1;
        fail("close failed", errno);
    }
    fd = -1;
    if (::rename(tmpPath.c_str(), path.c_str()) != 0)
        fail("rename failed", errno);
    done = true;

    // Persist the rename itself. Failure to fsync the directory is
    // not fatal: the file content is already durable and correctly
    // named; only the rename's durability across power loss degrades.
    const std::string dir = dirOf(path);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

void
AtomicFile::discard()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    if (!done)
        ::unlink(tmpPath.c_str());
    done = true;
}

void
writeFileAtomic(const std::string &path, const std::string &bytes,
                FaultSite site)
{
    AtomicFile file(path, site);
    file.append(bytes);
    file.commit();
}

void
copyFileAtomic(const std::string &from, const std::string &path,
               FaultSite site)
{
    std::ifstream in(from, std::ios::binary);
    if (!in)
        fatal("cannot open '", from, "'");
    AtomicFile file(path, site);
    std::string chunk(1u << 16, '\0');
    const auto size = static_cast<std::streamsize>(chunk.size());
    while (in.read(chunk.data(), size) || in.gcount() > 0)
        file.append(chunk.data(), static_cast<size_t>(in.gcount()));
    if (in.bad())
        fatal("reading '", from, "' failed");
    file.commit();
}

} // namespace icicle
