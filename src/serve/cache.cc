#include "serve/cache.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/crc32.hh"
#include "common/logging.hh"
#include "common/wire.hh"
#include "fault/atomic_file.hh"
#include "sweep/journal.hh"

namespace icicle
{

namespace
{

/** FNV-1a 64: the entry's file name, never its identity. */
u64
fnv1a64(const char *data, size_t size)
{
    u64 hash = 14695981039346656037ull;
    for (size_t i = 0; i < size; i++) {
        hash ^= static_cast<unsigned char>(data[i]);
        hash *= 1099511628211ull;
    }
    return hash;
}

} // namespace

ServeKey
serveCacheKey(const SweepPoint &point, u64 seed)
{
    // The per-job fields sweepGridHash folds in (core, workload,
    // cycle budget, trace flag) less the counter architecture,
    // prefixed with the cache-format version and extended with the
    // seed. The blob IS the key — lookup compares it byte-for-byte —
    // so the hash quality only affects file-name contention, not
    // correctness.
    ServeKey key;
    wire::put32(key.blob, kServeCacheVersion);
    wire::putStr(key.blob, point.core);
    wire::putStr(key.blob, point.workload);
    wire::put64(key.blob, point.maxCycles);
    wire::put8(key.blob, point.withTrace ? 1 : 0);
    wire::put64(key.blob, seed);
    key.hash = fnv1a64(key.blob.data(), key.blob.size());
    return key;
}

ResultCache::ResultCache(const std::string &dir) : cacheDir(dir)
{
    std::error_code ec;
    std::filesystem::create_directories(cacheDir, ec);
    if (ec || !std::filesystem::is_directory(cacheDir))
        fatal("cannot create cache directory '", cacheDir,
              "': ", ec ? ec.message() : "not a directory");
}

std::string
ResultCache::entryPath(u64 hash) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.res",
                  static_cast<unsigned long long>(hash));
    return cacheDir + "/" + name;
}

bool
ResultCache::lookup(const ServeKey &key, SweepResult &result) const
{
    std::ifstream in(entryPath(key.hash), std::ios::binary);
    if (!in)
        return false;
    std::string raw((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof())
        return false;

    wire::Cursor cur{
        reinterpret_cast<const unsigned char *>(raw.data()),
        raw.size()};
    if (cur.get32() != kServeCacheMagic ||
        cur.get32() != kServeCacheVersion)
        return false;
    // The embedded blob is the authoritative identity: a file that
    // landed under this name for any other run — hash collision,
    // rename, copy — is a miss, never a served lie.
    if (cur.getStr() != key.blob)
        return false;
    const std::string payload = cur.getStr();
    const u32 stored_crc = cur.get32();
    if (!cur.atEnd() ||
        crc32(payload.data(), payload.size()) != stored_crc)
        return false;
    return decodeSweepResult(
        reinterpret_cast<const unsigned char *>(payload.data()),
        payload.size(), 1, result);
}

void
ResultCache::publish(const ServeKey &key,
                     const SweepResult &result) const
{
    std::string bytes;
    wire::put32(bytes, kServeCacheMagic);
    wire::put32(bytes, kServeCacheVersion);
    wire::putStr(bytes, key.blob);
    const std::string payload = encodeSweepResult(result);
    wire::putStr(bytes, payload);
    wire::put32(bytes, crc32(payload.data(), payload.size()));
    writeFileAtomic(entryPath(key.hash), bytes,
                    FaultSite::StoreWrite);
}

u64
ResultCache::entriesOnDisk() const
{
    u64 count = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(cacheDir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".res")
            count++;
    }
    return count;
}

} // namespace icicle
