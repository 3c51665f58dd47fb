#include "fabric/bitstream.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace vfpga {

namespace {

/// The frame CRC: CRC-16/CCITT-FALSE over the payload bits of every frame
/// in order, with no concatenated copy. A payload shorter than frameBits
/// (a malformed stream) contributes the bits it has.
std::uint16_t payloadCrc(const Bitstream& bs) {
  std::uint16_t crc = kCrc16Init;
  for (const Frame& f : bs.frames) {
    crc = crc16PackedBits(
        crc, f.payload,
        std::min<std::size_t>(bs.frameBits, f.payload.size() * 8));
  }
  return crc;
}

}  // namespace

void Bitstream::sealCrc() { crc = payloadCrc(*this); }

bool Bitstream::crcOk() const { return crc == payloadCrc(*this); }

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

/// Frames of whole bytes start on byte boundaries: they are copied and
/// compared by the byte. Other frame sizes go bit by bit.
bool wholeBytes(std::uint32_t frameBits) { return frameBits % 8 == 0; }

/// Frame `id`'s bytes of an image of byte-aligned frames.
std::span<const std::uint8_t> frameBytes(const ConfigImage& image,
                                         std::uint32_t frameBits,
                                         std::uint32_t id) {
  return image.raw().subspan(frameBase(image, frameBits, id) / 8,
                             frameBits / 8);
}

}  // namespace

Frame readFrame(const ConfigImage& image, std::uint32_t frameBits,
                std::uint32_t frameId) {
  Frame f{frameId, std::vector<std::uint8_t>(payloadBytes(frameBits), 0)};
  if (wholeBytes(frameBits)) {
    std::ranges::copy(frameBytes(image, frameBits, frameId),
                      f.payload.begin());
  } else {
    const std::uint32_t base = frameBase(image, frameBits, frameId);
    for (std::uint32_t i = 0; i < frameBits; ++i) {
      f.setBit(i, image.get(base + i));
    }
  }
  return f;
}

bool frameHolds(const ConfigImage& image, std::uint32_t frameBits,
                std::uint32_t frameId, std::span<const std::uint8_t> payload) {
  const std::uint32_t base = frameBase(image, frameBits, frameId);
  if (payload.size() != payloadBytes(frameBits)) return false;
  if (wholeBytes(frameBits)) {
    return std::ranges::equal(frameBytes(image, frameBits, frameId), payload);
  }
  for (std::uint32_t i = 0; i < frameBits; ++i) {
    if (((payload[i / 8] >> (i % 8)) & 1u) != (image.get(base + i) ? 1u : 0u)) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint32_t> differingFrames(const ConfigImage& a,
                                           const ConfigImage& b,
                                           std::uint32_t frameBits) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("differingFrames: image sizes differ");
  }
  std::vector<std::uint32_t> ids;
  if (a == b) return ids;
  const std::uint32_t frames = a.size() / frameBits;
  for (std::uint32_t id = 0; id < frames; ++id) {
    const bool same =
        wholeBytes(frameBits)
            ? std::ranges::equal(frameBytes(a, frameBits, id),
                                 frameBytes(b, frameBits, id))
            : frameHolds(a, frameBits, id, readFrame(b, frameBits, id).payload);
    if (!same) ids.push_back(id);
  }
  return ids;
}

Bitstream makeFullBitstream(const ConfigImage& image,
                            std::uint32_t frameBits) {
  assert(image.size() % frameBits == 0);
  Bitstream bs;
  bs.frameBits = frameBits;
  bs.full = true;
  const std::uint32_t n = image.size() / frameBits;
  bs.frames.reserve(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    bs.frames.push_back(readFrame(image, frameBits, id));
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
    bs.frames.push_back(readFrame(image, frameBits, id));
  }
  bs.sealCrc();
  return bs;
}

void applyBitstream(ConfigImage& image, const Bitstream& bs) {
  // All or nothing: every frame is checked before the first is written.
  const std::size_t bytes = payloadBytes(bs.frameBits);
  for (const Frame& f : bs.frames) {
    frameBase(image, bs.frameBits, f.id);
    if (f.payload.size() != bytes) {
      throw std::invalid_argument("frame payload does not match frameBits");
    }
  }
  for (const Frame& f : bs.frames) {
    const std::uint32_t base = frameBase(image, bs.frameBits, f.id);
    if (wholeBytes(bs.frameBits)) {
      std::ranges::copy(f.payload, image.bytes_.begin() + base / 8);
    } else {
      for (std::uint32_t i = 0; i < bs.frameBits; ++i) {
        image.set(base + i, f.bit(i));
      }
    }
  }
}

namespace {

constexpr std::uint8_t kMagic[4] = {'V', 'F', 'P', 'B'};
constexpr std::uint16_t kFormatVersion = 1;

/// The bits of a payload's last byte that lie inside a frame.
std::uint8_t lastByteMask(std::uint32_t frameBits) {
  return frameBits % 8 == 0
             ? std::uint8_t{0xFF}
             : static_cast<std::uint8_t>((1u << (frameBits % 8)) - 1);
}

}  // namespace

std::vector<std::uint8_t> serializeBitstream(const Bitstream& bs) {
  std::vector<std::uint8_t> out;
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
  putU16(out, kFormatVersion);
  putU32(out, bs.frameBits);
  out.push_back(bs.full ? 1 : 0);
  putU32(out, static_cast<std::uint32_t>(bs.frames.size()));
  const std::size_t bytes = payloadBytes(bs.frameBits);
  for (const Frame& f : bs.frames) {
    putU32(out, f.id);
    const std::size_t at = out.size();
    out.resize(at + bytes, 0);
    std::copy_n(f.payload.begin(), std::min(bytes, f.payload.size()),
                out.begin() + static_cast<std::ptrdiff_t>(at));
    if (bytes > 0) out.back() &= lastByteMask(bs.frameBits);
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
  const std::size_t payload = payloadBytes(bs.frameBits);
  // Every frame carries its id and payload: a count the remaining bytes
  // cannot hold is a truncated (or forged) file, not a reason to allocate.
  if (!in.fits(frames, 4 + payload)) {
    throw std::runtime_error("truncated bitstream file");
  }
  bs.frames.reserve(frames);
  for (std::uint32_t f = 0; f < frames; ++f) {
    Frame frame;
    frame.id = in.u32();
    const auto raw = in.bytes(payload);
    frame.payload.assign(raw.begin(), raw.end());
    frame.payload.back() &= lastByteMask(bs.frameBits);
    bs.frames.push_back(std::move(frame));
  }
  bs.crc = in.u16();
  requireBytes();
  if (!in.atEnd()) throw std::runtime_error("trailing bytes in bitstream");
  if (!bs.crcOk()) throw std::runtime_error("bitstream CRC mismatch");
  return bs;
}

}  // namespace vfpga
