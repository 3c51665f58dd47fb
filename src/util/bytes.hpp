// Little-endian byte codec shared by the on-disk formats: VFPB bitstreams
// (fabric/bitstream.cpp) and VFCK checkpoints (fault/checkpoint.cpp).
// The writers append fixed-width fields. The reader is bounds-checked, and
// fits() checks a count read from the input against the bytes that remain
// before a decoder loops or reserves on it, so a crafted count can neither
// over-read nor over-allocate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vfpga {

/// Appends the low `n` bytes of `v`, least significant first.
inline void putLe(std::vector<std::uint8_t>& out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
inline void putU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  putLe(out, v, 2);
}
inline void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  putLe(out, v, 4);
}
inline void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  putLe(out, v, 8);
}

/// Bounds-checked little-endian reader. An overrun does not throw: it
/// poisons the reader, after which ok() is false and every read returns
/// zero or an empty span, so a decoder can check once where it reports.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  bool atEnd() const { return ok_ && pos_ == bytes_.size(); }

  /// True when `count` items of at least `minBytes` each can still follow;
  /// poisons the reader otherwise. Call it on every count read from the
  /// input before looping on it or reserving for it.
  bool fits(std::uint64_t count, std::uint64_t minBytes) {
    if (ok_ && (minBytes == 0 || count <= remaining() / minBytes)) return true;
    ok_ = false;
    return false;
  }

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }

  /// The next `n` bytes (empty on overrun).
  std::span<const std::uint8_t> bytes(std::uint64_t n) {
    if (!fits(n, 1)) return {};
    const auto s = bytes_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += s.size();
    return s;
  }

 private:
  std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint64_t le(int n) {
    std::uint64_t v = 0;
    const auto s = bytes(static_cast<std::uint64_t>(n));
    for (std::size_t i = 0; i < s.size(); ++i) {
      v |= std::uint64_t{s[i]} << (8 * i);
    }
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace vfpga
