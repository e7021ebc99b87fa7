/**
 * @file
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte buffers.
 *
 * Every checksummed byte format in the tree uses it: the icestore
 * trace header, blocks and footer index, sweep journal records,
 * icicled protocol frames and cache entries. Truncation and bit-rot
 * therefore surface as clean fatal() errors (or, in the cache, as
 * misses) instead of silently corrupt results.
 */

#ifndef ICICLE_COMMON_CRC32_HH
#define ICICLE_COMMON_CRC32_HH

#include <array>
#include <cstddef>

#include "common/types.hh"

namespace icicle
{

namespace detail
{

inline const std::array<u32, 256> &
crc32Table()
{
    static const std::array<u32, 256> table = [] {
        std::array<u32, 256> t{};
        for (u32 i = 0; i < 256; i++) {
            u32 crc = i;
            for (int bit = 0; bit < 8; bit++)
                crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
            t[i] = crc;
        }
        return t;
    }();
    return table;
}

} // namespace detail

/**
 * Incremental CRC-32: feed buffers, read value(). A fresh instance
 * over the same bytes always produces the same value, independent of
 * how the bytes were chunked.
 */
class Crc32
{
  public:
    void
    update(const void *data, std::size_t len)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        const std::array<u32, 256> &table = detail::crc32Table();
        for (std::size_t i = 0; i < len; i++)
            state = (state >> 8) ^ table[(state ^ bytes[i]) & 0xff];
    }

    u32 value() const { return ~state; }

  private:
    u32 state = 0xffffffffu;
};

/** One-shot CRC-32 of a buffer. */
inline u32
crc32(const void *data, std::size_t len)
{
    Crc32 crc;
    crc.update(data, len);
    return crc.value();
}

} // namespace icicle

#endif // ICICLE_COMMON_CRC32_HH
