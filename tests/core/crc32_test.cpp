// The shared CRC-32 (util/crc32.hpp) against the byte-at-a-time table
// loop it replaced, which lives on here as the oracle: every length 0..300
// at every start offset 0..15, so each slicing step, each tail length and
// each load alignment is compared bit for bit.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "fmore/util/crc32.hpp"

namespace fmore::util {
namespace {

/// The classic reflected IEEE CRC-32, one byte per table lookup.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesByteLoopAtEveryLengthAndOffset) {
    std::mt19937_64 gen(2020);
    std::vector<std::uint8_t> buf(16 + 300);
    for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(gen());
    for (std::size_t offset = 0; offset < 16; ++offset)
        for (std::size_t len = 0; len <= 300; ++len)
            ASSERT_EQ(crc32(buf.data() + offset, len), reference_crc32(buf.data() + offset, len))
                << "offset " << offset << ", length " << len;
}

TEST(Crc32, CheckValueOfTheStandard) {
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, AllOnesAndAllZerosBlocksMatchTheOracle) {
    for (std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
        const std::vector<std::uint8_t> block(4096 + 7, fill);
        EXPECT_EQ(crc32(block.data(), block.size()),
                  reference_crc32(block.data(), block.size()));
    }
}

} // namespace
} // namespace fmore::util
