// Digests and checksums shared across the library: FNV-1a, splitmix64 and
// the two CRC-16/CCITT-FALSE variants, each named for what it consumes.
// Header-inline: configDigest() runs these on the compiled fast path's
// resolve step, and the digest values are pinned by tests and baselines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace vfpga {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a over raw bytes, continuing from `h`.
inline std::uint64_t fnv1aBytes(std::uint64_t h,
                                std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over a u64 fed little-endian by construction, so the digest does
/// not depend on the host's byte order.
inline std::uint64_t fnv1aU64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

/// The splitmix64 finalizer of x + golden gamma: a stateless 64-bit mix.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// CRC-16/CCITT-FALSE bit-at-a-time over a 0/1 bit stream stored one bit
/// per byte (frame payloads); every nonzero byte counts as a 1 bit.
inline std::uint16_t crc16Bits(std::span<const std::uint8_t> bits) {
  std::uint16_t crc = 0xFFFF;
  for (const std::uint8_t b : bits) {
    const std::uint16_t in = (b != 0) ? 1 : 0;
    const std::uint16_t fb = ((crc >> 15) & 1) ^ in;
    crc = static_cast<std::uint16_t>(crc << 1);
    if (fb) crc ^= 0x1021;
  }
  return crc;
}

/// Byte-wise CRC-16/CCITT-FALSE. crc16Bits() consumes 0/1 *bit streams*
/// (frame payloads store one bit per byte) and reduces every byte to
/// nonzero-vs-zero — over a dense byte payload it would pass any flip that
/// leaves the byte nonzero. Checkpoints need all 8 bits of every byte
/// feeding the register.
inline std::uint16_t crc16Bytes(std::span<const std::uint8_t> bytes) {
  std::uint16_t crc = 0xFFFF;
  for (const std::uint8_t b : bytes) {
    crc ^= static_cast<std::uint16_t>(std::uint16_t{b} << 8);
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x8000) != 0
                ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

}  // namespace vfpga
