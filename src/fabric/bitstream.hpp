// Configuration images and bitstreams.
//
// A ConfigImage is the device's configuration RAM contents. A Bitstream is
// the *transfer* representation: an ordered list of frames, each carrying
// frameBits payload bits, protected by a CRC-16 — either the full device
// (serial full configuration, the only mode of e.g. the XC4000 discussed in
// §2) or an arbitrary frame subset (partial reconfiguration).
//
// Both store bits packed, as the VFPB file does: bit i is bit i % 8 of
// byte i / 8, and the bits past the end of the last byte are 0. Frames of a
// whole number of bytes (every device's frames: 64 or 128 bits) therefore
// start on byte boundaries in the image and move as whole bytes; other frame
// sizes fall back to a bit loop.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace vfpga {

struct Bitstream;

/// Bytes of `bits` packed bits: a payload of frameBits bits, or an image.
constexpr std::size_t payloadBytes(std::uint32_t bits) {
  return (std::size_t{bits} + 7) / 8;
}

class ConfigImage {
 public:
  ConfigImage() = default;
  explicit ConfigImage(std::uint32_t totalBits)
      : bits_(totalBits), bytes_(payloadBytes(totalBits), 0) {}

  std::uint32_t size() const { return bits_; }
  /// Bit access; std::out_of_range past the image.
  bool get(std::uint32_t bit) const {
    return ((bytes_[checked(bit) / 8] >> (bit % 8)) & 1u) != 0;
  }
  void set(std::uint32_t bit, bool v) {
    const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
    std::uint8_t& byte = bytes_[checked(bit) / 8];
    byte = v ? static_cast<std::uint8_t>(byte | mask)
             : static_cast<std::uint8_t>(byte & ~mask);
  }
  void clear() { bytes_.assign(bytes_.size(), 0); }

  /// The packed bytes (see the file comment).
  std::span<const std::uint8_t> raw() const { return bytes_; }

  bool operator==(const ConfigImage&) const = default;

 private:
  friend void applyBitstream(ConfigImage& image, const Bitstream& bs);

  std::uint32_t checked(std::uint32_t bit) const {
    if (bit >= bits_) throw std::out_of_range("config bit beyond image");
    return bit;
  }

  std::uint32_t bits_ = 0;
  std::vector<std::uint8_t> bytes_;  // packed, payloadBytes(bits_) bytes
};

struct Frame {
  std::uint32_t id = 0;
  std::vector<std::uint8_t> payload;  // packed, payloadBytes(frameBits)

  /// Payload bit i; std::out_of_range past the payload's bytes.
  bool bit(std::uint32_t i) const {
    return ((payload.at(i / 8) >> (i % 8)) & 1u) != 0;
  }
  void setBit(std::uint32_t i, bool v) {
    if (bit(i) != v) flipBit(i);
  }
  void flipBit(std::uint32_t i) {
    payload.at(i / 8) ^= static_cast<std::uint8_t>(1u << (i % 8));
  }
};

struct Bitstream {
  std::uint32_t frameBits = 0;
  bool full = false;  ///< covers every frame of the device
  std::vector<Frame> frames;
  std::uint16_t crc = 0;

  std::size_t frameCount() const { return frames.size(); }
  std::size_t bitCount() const { return frames.size() * frameBits; }

  /// Recomputes the CRC over all payload bits (in frame order).
  void sealCrc();
  /// True when the stored CRC matches the payloads.
  bool crcOk() const;
};

/// Serializes an entire image as a full bitstream.
Bitstream makeFullBitstream(const ConfigImage& image, std::uint32_t frameBits);

/// Serializes only the listed frames (sorted, deduplicated by the caller).
Bitstream makePartialBitstream(const ConfigImage& image,
                               std::uint32_t frameBits,
                               std::span<const std::uint32_t> frameIds);

/// Applies a bitstream to an image. All or nothing: a frame id outside the
/// image throws std::out_of_range, and a payload that is not
/// payloadBytes(frameBits) long std::invalid_argument, before any frame is
/// written.
void applyBitstream(ConfigImage& image, const Bitstream& bs);

/// Frame `frameId` of an image. Throws std::out_of_range when the frame
/// does not lie inside the image.
Frame readFrame(const ConfigImage& image, std::uint32_t frameBits,
                std::uint32_t frameId);

/// True when frame `frameId` of the image holds the bits of a packed
/// `payload` (bits past frameBits are ignored); false for a payload that is
/// not payloadBytes(frameBits) long. Throws std::out_of_range like
/// readFrame().
bool frameHolds(const ConfigImage& image, std::uint32_t frameBits,
                std::uint32_t frameId, std::span<const std::uint8_t> payload);

/// The ids of the frames in which two images of the same size differ, in
/// ascending order. Throws std::invalid_argument on a size mismatch.
std::vector<std::uint32_t> differingFrames(const ConfigImage& a,
                                           const ConfigImage& b,
                                           std::uint32_t frameBits);

// ---- byte-level serialization (the on-disk / on-wire format) --------------
// Layout (all multi-byte fields little-endian):
//   "VFPB"  magic            (4 bytes)
//   u16     format version   (currently 1)
//   u32     frameBits
//   u8      full flag
//   u32     frame count
//   per frame: u32 frame id, payloadBytes(frameBits) packed payload bytes
//   u16     CRC-16 over the payload bits (same CRC as Bitstream::crc)
// A frame's payload bytes are its Frame::payload; padding bits past
// frameBits are written as 0 and ignored on reading.

/// Packs a bitstream into bytes.
std::vector<std::uint8_t> serializeBitstream(const Bitstream& bs);

/// Parses bytes back into a bitstream. Throws std::runtime_error on bad
/// magic, unsupported version, truncation, or CRC mismatch.
Bitstream deserializeBitstream(std::span<const std::uint8_t> bytes);

}  // namespace vfpga
