// Configuration images and bitstreams.
//
// A ConfigImage is the device's configuration RAM contents (one entry per
// bit). A Bitstream is the *transfer* representation: an ordered list of
// frames, each carrying frameBits payload bits, protected by a CRC-16 —
// either the full device (serial full configuration, the only mode of e.g.
// the XC4000 discussed in §2) or an arbitrary frame subset (partial
// reconfiguration).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace vfpga {

class ConfigImage {
 public:
  ConfigImage() = default;
  explicit ConfigImage(std::uint32_t totalBits) : bits_(totalBits, 0) {}

  std::uint32_t size() const { return static_cast<std::uint32_t>(bits_.size()); }
  bool get(std::uint32_t bit) const { return bits_.at(bit) != 0; }
  void set(std::uint32_t bit, bool v) { bits_.at(bit) = v ? 1 : 0; }
  void clear() { bits_.assign(bits_.size(), 0); }

  std::span<const std::uint8_t> raw() const { return bits_; }

  bool operator==(const ConfigImage&) const = default;

 private:
  std::vector<std::uint8_t> bits_;  // one byte per bit, value 0/1
};

struct Frame {
  std::uint32_t id = 0;
  std::vector<std::uint8_t> payload;  // frameBits entries, value 0/1
};

struct Bitstream {
  std::uint32_t frameBits = 0;
  bool full = false;  ///< covers every frame of the device
  std::vector<Frame> frames;
  std::uint16_t crc = 0;

  std::size_t frameCount() const { return frames.size(); }
  std::size_t bitCount() const { return frames.size() * frameBits; }

  /// Recomputes the CRC over all payloads (in frame order).
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
/// image throws std::out_of_range before any frame is written.
void applyBitstream(ConfigImage& image, const Bitstream& bs);

/// One frame's worth of image bits. Throws std::out_of_range when the frame
/// does not lie inside the image.
std::span<const std::uint8_t> imageFrame(const ConfigImage& image,
                                         std::uint32_t frameBits,
                                         std::uint32_t frameId);

// ---- byte-level serialization (the on-disk / on-wire format) --------------
// Layout (all multi-byte fields little-endian):
//   "VFPB"  magic            (4 bytes)
//   u16     format version   (currently 1)
//   u32     frameBits
//   u8      full flag
//   u32     frame count
//   per frame: u32 frame id, ceil(frameBits/8) packed payload bytes
//   u16     CRC-16 over the payload bits (same CRC as Bitstream::crc)

/// Packs a bitstream into bytes.
std::vector<std::uint8_t> serializeBitstream(const Bitstream& bs);

/// Parses bytes back into a bitstream. Throws std::runtime_error on bad
/// magic, unsupported version, truncation, or CRC mismatch.
Bitstream deserializeBitstream(std::span<const std::uint8_t> bytes);

}  // namespace vfpga
