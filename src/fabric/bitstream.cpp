#include "fabric/bitstream.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace vfpga {

void Bitstream::sealCrc() {
  std::vector<std::uint8_t> all;
  all.reserve(bitCount());
  for (const Frame& f : frames) {
    all.insert(all.end(), f.payload.begin(), f.payload.end());
  }
  crc = crc16Bits(all);
}

bool Bitstream::crcOk() const {
  std::vector<std::uint8_t> all;
  all.reserve(bitCount());
  for (const Frame& f : frames) {
    all.insert(all.end(), f.payload.begin(), f.payload.end());
  }
  return crc == crc16Bits(all);
}

namespace {

/// First image bit of frame `id`. The offset is computed in 64 bits, so a
/// forged id cannot wrap around into a frame of the image. Throws
/// std::out_of_range when the frame does not lie inside the image.
std::uint32_t frameBase(const ConfigImage& image, std::uint32_t frameBits,
                        std::uint32_t id) {
  const std::uint64_t base = std::uint64_t{id} * frameBits;
  if (base + frameBits > image.size()) {
    throw std::out_of_range("frame id beyond image");
  }
  return static_cast<std::uint32_t>(base);
}

Frame extractFrame(const ConfigImage& image, std::uint32_t frameBits,
                   std::uint32_t id) {
  Frame f;
  f.id = id;
  f.payload.resize(frameBits);
  const std::uint32_t base = frameBase(image, frameBits, id);
  for (std::uint32_t i = 0; i < frameBits; ++i) {
    f.payload[i] = image.get(base + i) ? 1 : 0;
  }
  return f;
}

}  // namespace

Bitstream makeFullBitstream(const ConfigImage& image,
                            std::uint32_t frameBits) {
  assert(image.size() % frameBits == 0);
  Bitstream bs;
  bs.frameBits = frameBits;
  bs.full = true;
  const std::uint32_t n = image.size() / frameBits;
  bs.frames.reserve(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    bs.frames.push_back(extractFrame(image, frameBits, id));
  }
  bs.sealCrc();
  return bs;
}

Bitstream makePartialBitstream(const ConfigImage& image,
                               std::uint32_t frameBits,
                               std::span<const std::uint32_t> frameIds) {
  Bitstream bs;
  bs.frameBits = frameBits;
  bs.full = false;
  bs.frames.reserve(frameIds.size());
  for (std::uint32_t id : frameIds) {
    bs.frames.push_back(extractFrame(image, frameBits, id));
  }
  bs.sealCrc();
  return bs;
}

namespace {

constexpr std::uint8_t kMagic[4] = {'V', 'F', 'P', 'B'};
constexpr std::uint16_t kFormatVersion = 1;

}  // namespace

std::vector<std::uint8_t> serializeBitstream(const Bitstream& bs) {
  std::vector<std::uint8_t> out;
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  putU16(out, kFormatVersion);
  putU32(out, bs.frameBits);
  out.push_back(bs.full ? 1 : 0);
  putU32(out, static_cast<std::uint32_t>(bs.frames.size()));
  const std::size_t payloadBytes = (bs.frameBits + 7) / 8;
  for (const Frame& f : bs.frames) {
    putU32(out, f.id);
    for (std::size_t byte = 0; byte < payloadBytes; ++byte) {
      std::uint8_t packed = 0;
      for (std::size_t bit = 0; bit < 8; ++bit) {
        const std::size_t idx = byte * 8 + bit;
        if (idx < f.payload.size() && f.payload[idx]) {
          packed |= static_cast<std::uint8_t>(1u << bit);
        }
      }
      out.push_back(packed);
    }
  }
  putU16(out, bs.crc);
  return out;
}

Bitstream deserializeBitstream(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  const auto requireBytes = [&in] {
    if (!in.ok()) throw std::runtime_error("truncated bitstream file");
  };
  const auto magic = in.bytes(4);
  requireBytes();
  if (!std::ranges::equal(magic, kMagic)) {
    throw std::runtime_error("bad bitstream magic");
  }
  const std::uint16_t version = in.u16();
  requireBytes();
  if (version != kFormatVersion) {
    throw std::runtime_error("unsupported bitstream format version");
  }
  Bitstream bs;
  bs.frameBits = in.u32();
  requireBytes();
  if (bs.frameBits == 0 || bs.frameBits > (1u << 20)) {
    throw std::runtime_error("implausible frame size");
  }
  bs.full = in.u8() != 0;
  const std::uint32_t frames = in.u32();
  const std::size_t payloadBytes = (bs.frameBits + 7) / 8;
  // Every frame carries its id and payload: a count the remaining bytes
  // cannot hold is a truncated (or forged) file, not a reason to allocate.
  if (!in.fits(frames, 4 + payloadBytes)) {
    throw std::runtime_error("truncated bitstream file");
  }
  bs.frames.reserve(frames);
  for (std::uint32_t f = 0; f < frames; ++f) {
    Frame frame;
    frame.id = in.u32();
    frame.payload.resize(bs.frameBits);
    const auto raw = in.bytes(payloadBytes);
    for (std::uint32_t bit = 0; bit < bs.frameBits; ++bit) {
      frame.payload[bit] = (raw[bit / 8] >> (bit % 8)) & 1;
    }
    bs.frames.push_back(std::move(frame));
  }
  bs.crc = in.u16();
  requireBytes();
  if (!in.atEnd()) throw std::runtime_error("trailing bytes in bitstream");
  if (!bs.crcOk()) throw std::runtime_error("bitstream CRC mismatch");
  return bs;
}

std::span<const std::uint8_t> imageFrame(const ConfigImage& image,
                                         std::uint32_t frameBits,
                                         std::uint32_t frameId) {
  return image.raw().subspan(frameBase(image, frameBits, frameId), frameBits);
}

void applyBitstream(ConfigImage& image, const Bitstream& bs) {
  // All or nothing: every frame is checked before the first is written.
  for (const Frame& f : bs.frames) frameBase(image, bs.frameBits, f.id);
  for (const Frame& f : bs.frames) {
    const std::uint32_t base = frameBase(image, bs.frameBits, f.id);
    for (std::uint32_t i = 0; i < bs.frameBits; ++i) {
      image.set(base + i, f.payload[i] != 0);
    }
  }
}

}  // namespace vfpga
