#include "fabric/config_port.hpp"

#include <algorithm>
#include <stdexcept>

namespace vfpga {

SimDuration ConfigPort::downloadCost(const Bitstream& bs) const {
  return appliedDownloadCost(bs, bs.frameCount());
}

SimDuration ConfigPort::fullDownloadCost() const {
  return spec_.fullOverhead +
         static_cast<SimDuration>(device_->configMap().totalBits()) *
             spec_.bitPeriod;
}

SimDuration ConfigPort::stateReadCost(std::size_t ffBits) const {
  return spec_.stateOverhead + ffBits * spec_.stateBitPeriod;
}

SimDuration ConfigPort::stateWriteCost(std::size_t ffBits) const {
  return spec_.stateOverhead + ffBits * spec_.stateBitPeriod;
}

Bitstream ConfigPort::columnsBitstream(const Bitstream& src,
                                       std::uint16_t c0, std::uint16_t c1,
                                       bool changedOnly) const {
  const ConfigMap& map = device_->configMap();
  const std::uint32_t frameBits = map.frameBits();
  const auto fits = [&](const Frame& f) {
    return src.frameBits == frameBits &&
           f.payload.size() == payloadBytes(frameBits) &&
           f.id < map.frameCount();
  };
  if (c0 > c1 || c1 >= device_->geometry().cols ||
      !std::ranges::all_of(src.frames, fits)) {
    throw std::invalid_argument(
        "columnsBitstream: source or column range does not fit the device");
  }
  const auto [f0, f1] = map.framesOfColumns(c0, c1);
  // What each frame of the range should hold: the source's frame, or blank.
  const std::vector<std::uint8_t> blank(payloadBytes(frameBits), 0);
  std::vector<std::span<const std::uint8_t>> want(f1 - f0, blank);
  for (const Frame& f : src.frames) {
    if (f.id >= f0 && f.id < f1) want[f.id - f0] = f.payload;
  }
  // A frame is unchanged only when both the RAM and the golden image hold
  // it: after a failed download they differ, and a frame skipped for
  // matching the RAM would leave a stale intent for scrub() to restore.
  Bitstream bs;
  bs.frameBits = frameBits;
  for (std::uint32_t f = f0; f < f1; ++f) {
    const auto bits = want[f - f0];
    if (!changedOnly || !spec_.partialReconfig ||
        !frameHolds(device_->image(), frameBits, f, bits) ||
        !frameHolds(expected_, frameBits, f, bits)) {
      bs.frames.push_back(Frame{f, {bits.begin(), bits.end()}});
    }
  }
  if (!spec_.partialReconfig) {
    // The other columns come from the golden image, not the RAM: download()
    // writes this image into expected_ too, so an upset in the RAM would
    // otherwise become the intended value and hide from the scrubber.
    ConfigImage merged = expected_;
    applyBitstream(merged, bs);
    return makeFullBitstream(merged, frameBits);
  }
  bs.sealCrc();
  return bs;
}

SimDuration ConfigPort::appliedDownloadCost(const Bitstream& bs,
                                            std::size_t framesApplied) const {
  if (bs.full) {
    return spec_.fullOverhead +
           framesApplied * bs.frameBits * spec_.bitPeriod;
  }
  return framesApplied * (spec_.frameOverhead + bs.frameBits * spec_.bitPeriod);
}

SimDuration ConfigPort::download(const Bitstream& bs) {
  if (!bs.full && !spec_.partialReconfig) {
    throw std::logic_error(
        "partial bitstream on a serial-full-only configuration port");
  }
  // The *intent* always lands in the golden image, even when the wire
  // mangles what reaches the device: the scrubber repairs toward intent.
  applyBitstream(expected_, bs);
  if (bs.full) {
    ++stats_.fullDownloads;
  } else {
    ++stats_.partialDownloads;
  }
  const DownloadTamper tamper = tamper_ ? tamper_(bs) : DownloadTamper{};
  const std::size_t applied = static_cast<std::size_t>(
      std::min<std::uint64_t>(tamper.framesApplied, bs.frameCount()));
  if (applied < bs.frameCount()) ++stats_.abortedDownloads;
  if (!tamper.flips.empty()) ++stats_.corruptedDownloads;
  if (applied == bs.frameCount() && tamper.flips.empty()) {
    device_->applyBitstream(bs);
  } else {
    // The modelled faults strike *after* the stream CRC generator (write
    // noise between the port and the configuration RAM), so the stream-level
    // check passes and detection is the job of readback verify/scrub.
    Bitstream wire = bs;
    wire.frames.resize(applied);
    for (const auto& [frame, bit] : tamper.flips) {
      if (frame >= applied) continue;
      if (bit >= bs.frameBits) throw std::out_of_range("flip beyond frame");
      wire.frames[frame].flipBit(bit);
    }
    wire.sealCrc();
    device_->applyBitstream(wire);
  }
  // An aborted transfer is charged for the prefix that made it across.
  const SimDuration t = appliedDownloadCost(bs, applied);
  stats_.bitsWritten += applied * bs.frameBits;
  stats_.busyTime += t;
  return t;
}

VerifyResult ConfigPort::verifyDownload(const Bitstream& bs) {
  VerifyResult res;
  for (const Frame& f : bs.frames) {
    ++stats_.verifyReads;
    res.time += spec_.frameOverhead + bs.frameBits * spec_.bitPeriod;
    if (!frameHolds(device_->image(), bs.frameBits, f.id, f.payload)) {
      ++res.badFrames;
    }
  }
  res.ok = res.badFrames == 0;
  stats_.verifyFailures += res.badFrames;
  stats_.busyTime += res.time;
  return res;
}

ScrubResult ConfigPort::scrub() {
  const std::uint32_t frameBits = device_->configMap().frameBits();
  const std::uint32_t frames = device_->configMap().totalBits() / frameBits;
  ScrubResult res;
  res.checkedFrames = frames;
  // Scan pass: the scrub engine reads back one CRC word per frame, not the
  // whole frame, so a pass over an idle device is cheap. The frames
  // themselves are compared: some upsets leave a frame's CRC unchanged.
  res.time += frames * (spec_.frameOverhead + 16 * spec_.bitPeriod);
  const std::vector<std::uint32_t> dirty =
      differingFrames(device_->image(), expected_, frameBits);
  stats_.scrubReads += frames;
  if (!dirty.empty()) {
    // Repair pass. On a frame-addressable port only the dirty frames are
    // rewritten; a serial-full-only port must re-download everything. The
    // repair write goes straight to the device (dedicated scrub datapath,
    // not subject to the wire tamper hook — this also guarantees the
    // scrubber converges).
    Bitstream repair =
        spec_.partialReconfig
            ? makePartialBitstream(expected_, frameBits, dirty)
            : makeFullBitstream(expected_, frameBits);
    device_->applyBitstream(repair);
    res.time += downloadCost(repair);
    res.repairedFrames = static_cast<std::uint32_t>(dirty.size());
    stats_.scrubRepairedFrames += res.repairedFrames;
    stats_.bitsWritten += repair.bitCount();
  }
  stats_.busyTime += res.time;
  return res;
}

SimDuration ConfigPort::chargeStateRead(std::size_t ffBits) {
  return chargeState(stateReadCost(ffBits), ffBits, stats_.stateReads);
}

SimDuration ConfigPort::chargeStateWrite(std::size_t ffBits) {
  return chargeState(stateWriteCost(ffBits), ffBits, stats_.stateWrites);
}

SimDuration ConfigPort::chargeState(SimDuration t, std::size_t ffBits,
                                    std::uint64_t& moves) {
  if (!spec_.stateAccess) {
    throw std::logic_error("state readback/writeback not supported by this "
                           "port");
  }
  ++moves;
  stats_.stateBitsMoved += ffBits;
  stats_.busyTime += t;
  return t;
}

}  // namespace vfpga
