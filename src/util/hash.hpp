// Digests and checksums shared across the library: FNV-1a, splitmix64 and
// CRC-16/CCITT-FALSE by table, over packed bit streams (frame payloads,
// register snapshots: bit 0 of each byte first, sliced 16 bytes at a time)
// or over bytes (checkpoint payloads: bit 7 first, one byte at a time).
// Header-inline: configDigest() runs these on the compiled fast path's
// resolve step, and the digest values are pinned by tests and baselines.
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

/// CRC-16/CCITT-FALSE tables. `msbFirst[b]` is the register change of
/// shifting in byte b most significant bit first (polynomial 0x1021,
/// register shifted left). `lsbFirst` works in the reflected domain
/// (polynomial 0x8408, register shifted right), where a byte enters bit 0
/// first: `lsbFirst[k][b]` is the register change of shifting in byte b
/// followed by k zero bytes, so a 16-byte step is sixteen independent
/// lookups (slicing-by-16), and `lsbFirst[0]` alone steps one byte.
struct Crc16Tables {
  std::array<std::uint16_t, 256> msbFirst{};
  std::array<std::array<std::uint16_t, 256>, 16> lsbFirst{};
};

constexpr Crc16Tables makeCrc16Tables() {
  Crc16Tables t;
  for (unsigned b = 0; b < 256; ++b) {
    unsigned msb = b << 8;
    unsigned lsb = b;
    for (int i = 0; i < 8; ++i) {
      msb = (msb & 0x8000) != 0 ? (msb << 1) ^ 0x1021 : msb << 1;
      lsb = (lsb & 1) != 0 ? (lsb >> 1) ^ 0x8408 : lsb >> 1;
    }
    t.msbFirst[b] = static_cast<std::uint16_t>(msb);
    t.lsbFirst[0][b] = static_cast<std::uint16_t>(lsb);
  }
  for (std::size_t k = 1; k < 16; ++k) {
    for (unsigned b = 0; b < 256; ++b) {
      const std::uint16_t prev = t.lsbFirst[k - 1][b];
      t.lsbFirst[k][b] = static_cast<std::uint16_t>(
          (prev >> 8) ^ t.lsbFirst[0][prev & 0xffu]);
    }
  }
  return t;
}

inline constexpr Crc16Tables kCrc16 = makeCrc16Tables();

/// `v` with its 16 bits in reverse order: the register moved between the
/// CRC's normal and reflected domains.
constexpr std::uint16_t reflect16(unsigned v) {
  v = ((v >> 1) & 0x5555u) | ((v & 0x5555u) << 1);
  v = ((v >> 2) & 0x3333u) | ((v & 0x3333u) << 2);
  v = ((v >> 4) & 0x0f0fu) | ((v & 0x0f0fu) << 4);
  return static_cast<std::uint16_t>(((v >> 8) & 0xffu) | ((v & 0xffu) << 8));
}

}  // namespace detail

inline constexpr std::uint16_t kCrc16Init = 0xFFFF;

/// CRC-16/CCITT-FALSE over the first `bits` bits of a packed bit stream
/// (bit i is bit i % 8 of byte i / 8, fed bit 0 first), continuing from
/// `crc`. Feeding bit 0 first is the reflected CRC's natural order, so the
/// register is reflected once on the way in and once on the way out. In
/// between, 16-byte steps (a 128-bit frame is one) go through the
/// slicing-by-16 tables, the remaining whole bytes one lookup each, and the
/// last bits % 8 bits one at a time. Chaining calls over consecutive pieces
/// equals one call over their concatenation.
inline std::uint16_t crc16PackedBits(std::uint16_t crc,
                                     std::span<const std::uint8_t> packed,
                                     std::size_t bits) {
  const auto& t = detail::kCrc16.lsbFirst;
  unsigned r = detail::reflect16(crc);
  const std::uint8_t* p = packed.data();
  const std::size_t whole = bits / 8;
  std::size_t i = 0;
  for (; i + 16 <= whole; i += 16, p += 16) {
    r = t[15][(r ^ p[0]) & 0xffu] ^ t[14][(r >> 8) ^ p[1]] ^ t[13][p[2]] ^
        t[12][p[3]] ^ t[11][p[4]] ^ t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^
        t[7][p[8]] ^ t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^ t[3][p[12]] ^
        t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
  }
  for (; i < whole; ++i, ++p) r = (r >> 8) ^ t[0][(r ^ *p) & 0xffu];
  for (std::size_t b = 0; b < bits % 8; ++b) {
    const unsigned fb = (r ^ (*p >> b)) & 1u;
    r >>= 1;
    if (fb != 0) r ^= 0x8408u;
  }
  return detail::reflect16(r);
}

/// CRC-16/CCITT-FALSE over bytes, each fed most significant bit first (the
/// standard byte order, used for checkpoint payloads). Over the same bytes
/// it differs from crc16PackedBits(), which feeds each byte's bit 0 first.
inline std::uint16_t crc16Bytes(std::span<const std::uint8_t> bytes) {
  std::uint16_t crc = kCrc16Init;
  for (const std::uint8_t b : bytes) {
    crc = static_cast<std::uint16_t>(
        (crc << 8) ^ detail::kCrc16.msbFirst[(crc >> 8) ^ b]);
  }
  return crc;
}

}  // namespace vfpga
