#pragma once

/// @file crc32.hpp
/// The one CRC-32 of the repo: IEEE 802.3 polynomial, reflected
/// (0xEDB88320), initial value and final XOR 0xFFFFFFFF — the checksum of
/// zlib, PNG and Ethernet, so `crc32("123456789") == 0xCBF43926`. Snapshot
/// sections (`util/snapshot.hpp`) and shard wire frames
/// (`mec/wire_format.hpp`) both checksum through it.
///
/// Slicing-by-16: sixteen 256-entry tables fold 16 input bytes per step
/// with 16 independent lookups, instead of one byte per dependent lookup.
/// Portable C++ — unaligned loads go through memcpy, no intrinsics — and
/// bit-identical to the byte-at-a-time loop for every input.

#include <cstddef>
#include <cstdint>

namespace fmore::util {

/// CRC-32 of `size` bytes at `data`.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size);

} // namespace fmore::util
