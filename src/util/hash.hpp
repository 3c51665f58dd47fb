// Digests and checksums shared across the library: FNV-1a, splitmix64 and
// CRC-16/CCITT-FALSE by one byte table, over packed bit streams (frame
// payloads, register snapshots: bit 0 of each byte first) or over bytes
// (checkpoint payloads: bit 7 first). Header-inline: configDigest() runs
// these on the compiled fast path's resolve step, and the digest values
// are pinned by tests and baselines.
#pragma once

#include <array>
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

namespace detail {

/// CRC-16/CCITT-FALSE (polynomial 0x1021) by the byte: `step[b]` is the
/// register change of shifting in byte b most significant bit first, and
/// `rev[b]` is b with its bit order reversed.
struct Crc16Tables {
  std::array<std::uint16_t, 256> step{};
  std::array<std::uint8_t, 256> rev{};
};

constexpr Crc16Tables makeCrc16Tables() {
  Crc16Tables t;
  for (unsigned b = 0; b < 256; ++b) {
    unsigned crc = b << 8;
    unsigned r = 0;
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x8000) != 0 ? (crc << 1) ^ 0x1021 : crc << 1;
      r |= ((b >> i) & 1u) << (7 - i);
    }
    t.step[b] = static_cast<std::uint16_t>(crc);
    t.rev[b] = static_cast<std::uint8_t>(r);
  }
  return t;
}

inline constexpr Crc16Tables kCrc16 = makeCrc16Tables();

}  // namespace detail

inline constexpr std::uint16_t kCrc16Init = 0xFFFF;

/// CRC-16/CCITT-FALSE over the first `bits` bits of a packed bit stream
/// (bit i is bit i % 8 of byte i / 8, fed bit 0 first), continuing from
/// `crc`. Whole bytes go through the table, bit-reversed so their bit 0
/// enters first; the last bits % 8 bits are fed one at a time. Chaining
/// calls over consecutive pieces equals one call over their concatenation.
inline std::uint16_t crc16PackedBits(std::uint16_t crc,
                                     std::span<const std::uint8_t> packed,
                                     std::size_t bits) {
  const std::size_t whole = bits / 8;
  for (std::size_t i = 0; i < whole; ++i) {
    crc = static_cast<std::uint16_t>(
        (crc << 8) ^
        detail::kCrc16.step[(crc >> 8) ^ detail::kCrc16.rev[packed[i]]]);
  }
  for (std::size_t i = whole * 8; i < bits; ++i) {
    const unsigned fb = ((crc >> 15) ^ (packed[i / 8] >> (i % 8))) & 1u;
    crc = static_cast<std::uint16_t>(crc << 1);
    if (fb != 0) crc ^= 0x1021;
  }
  return crc;
}

/// CRC-16/CCITT-FALSE over bytes, each fed most significant bit first (the
/// standard byte order, used for checkpoint payloads). Over the same bytes
/// it differs from crc16PackedBits(), which feeds each byte's bit 0 first.
inline std::uint16_t crc16Bytes(std::span<const std::uint8_t> bytes) {
  std::uint16_t crc = kCrc16Init;
  for (const std::uint8_t b : bytes) {
    crc = static_cast<std::uint16_t>((crc << 8) ^
                                     detail::kCrc16.step[(crc >> 8) ^ b]);
  }
  return crc;
}

}  // namespace vfpga
