#pragma once
/// \file crc32.hpp
/// CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320, init/final-xor
/// 0xFFFFFFFF), shared by the accelerator's SPM tile check, the host-side
/// workload staging that precomputes expected values, and the tests. The
/// bitwise form is table-free but costs 8 shift/xor steps per byte, so
/// the accelerator folds a tile only when its check bit is set.

#include <cstddef>
#include <cstdint>

namespace aspen::sys {

inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;
inline constexpr std::uint32_t kCrc32FinalXor = 0xFFFFFFFFu;

/// Fold one byte into the (un-finalized) CRC register.
inline std::uint32_t crc32_byte(std::uint32_t crc, std::uint8_t b) {
  crc ^= b;
  for (int k = 0; k < 8; ++k)
    crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  return crc;
}

/// Fold one little-endian 16-bit value (the Q3.12 SPM element order).
inline std::uint32_t crc32_le16(std::uint32_t crc, std::uint16_t v) {
  crc = crc32_byte(crc, static_cast<std::uint8_t>(v & 0xFFu));
  return crc32_byte(crc, static_cast<std::uint8_t>(v >> 8));
}

/// One-shot CRC over a byte buffer.
inline std::uint32_t crc32(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = kCrc32Init;
  while (n-- > 0) crc = crc32_byte(crc, *p++);
  return crc ^ kCrc32FinalXor;
}

}  // namespace aspen::sys
