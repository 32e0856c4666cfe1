#include "fmore/util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace fmore::util {

namespace {

// The 16-byte step below reads input words with memcpy and treats byte 0
// as the low byte, which is the reflected CRC's byte order only on a
// little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the slicing CRC assumes a little-endian host");

using Table = std::array<std::uint32_t, 256>;

/// kTables[0] is the classic byte table; kTables[s][b] is the CRC state
/// contribution of byte b followed by s zero bytes.
constexpr std::array<Table, 16> kTables = [] {
    std::array<Table, 16> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
        t[0][i] = c;
    }
    for (std::size_t s = 1; s < 16; ++s)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    return t;
}();

std::uint32_t load_u32(const std::uint8_t* p) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// Folds word `w` (input bytes i..i+3) through tables `hi`..`hi-3`.
constexpr std::uint32_t fold(std::uint32_t w, std::size_t hi) {
    return kTables[hi][w & 0xFFu] ^ kTables[hi - 1][(w >> 8) & 0xFFu]
           ^ kTables[hi - 2][(w >> 16) & 0xFFu] ^ kTables[hi - 3][w >> 24];
}

} // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; size >= 16; size -= 16, p += 16) {
        crc = fold(load_u32(p) ^ crc, 15) ^ fold(load_u32(p + 4), 11)
              ^ fold(load_u32(p + 8), 7) ^ fold(load_u32(p + 12), 3);
    }
    for (; size > 0; --size, ++p) crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

} // namespace fmore::util
