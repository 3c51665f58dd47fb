// Configuration port: the only way configuration data moves between the
// host and the device, with an explicit time model that also prices
// register readback and writeback.
//
// Two port generations are modelled, matching §2 of the paper:
//  * serial-full only (e.g. Xilinx XC4000: "downloaded only serially and
//    completely in no more than 200 ms") — partialReconfig = false;
//  * frame-addressable partial reconfiguration ("in some Xilinx FPGA
//    families the connectivity is partially reconfigurable") —
//    partialReconfig = true.
// State readback/writeback (for preemption save/restore) is a separate
// capability flag with its own per-bit cost; core/circuit_io.hpp moves a
// circuit's registers and charges it here.
//
// columnsBitstream() is the one place where a column range becomes frames:
// the OS managers say which columns should hold which circuit's partial
// bitstream, and the port picks the frames (or, on a serial port, the
// whole merged image) to send.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "fabric/device.hpp"
#include "sim/types.hpp"

namespace vfpga {

/// Sentinel for DownloadTamper::framesApplied: the whole transfer landed.
inline constexpr std::uint64_t kAllFrames = ~0ull;

/// What a wire-level fault did to one download transfer, as the tamper
/// hook (see ConfigPort::setTamperHook) reports it; the port applies it.
struct DownloadTamper {
  /// Number of leading frames that actually reached the device
  /// (kAllFrames = no truncation).
  std::uint64_t framesApplied = kAllFrames;
  /// Payload bits flipped in transit as (frame index, bit), in order; a
  /// bit flipped twice is restored. Empty = not corrupted.
  std::vector<std::pair<std::size_t, std::uint32_t>> flips;
};

struct ConfigPortSpec {
  bool partialReconfig = true;
  bool stateAccess = true;
  SimDuration bitPeriod = nanos(500);       ///< per config bit written
  SimDuration frameOverhead = micros(2);    ///< address setup per frame (partial)
  SimDuration fullOverhead = micros(100);   ///< startup sequence (full config)
  SimDuration stateBitPeriod = nanos(500);  ///< per FF bit read/written
  SimDuration stateOverhead = micros(5);    ///< per readback/writeback op
};

/// Cumulative traffic counters (consumed by the OS metrics layer).
struct ConfigPortStats {
  std::uint64_t fullDownloads = 0;
  std::uint64_t partialDownloads = 0;
  std::uint64_t bitsWritten = 0;
  std::uint64_t stateReads = 0;
  std::uint64_t stateWrites = 0;
  std::uint64_t stateBitsMoved = 0;
  SimDuration busyTime = 0;
  // Fault-tolerance traffic (all zero unless a tamper hook / verify /
  // scrub is in use).
  std::uint64_t abortedDownloads = 0;
  std::uint64_t corruptedDownloads = 0;
  std::uint64_t verifyReads = 0;
  std::uint64_t verifyFailures = 0;
  std::uint64_t scrubReads = 0;
  std::uint64_t scrubRepairedFrames = 0;
  bool operator==(const ConfigPortStats&) const = default;
};

/// Result of a post-download readback verification pass.
struct VerifyResult {
  bool ok = true;
  std::uint32_t badFrames = 0;
  SimDuration time = 0;
};

/// Result of one readback scrub pass over the whole device.
struct ScrubResult {
  std::uint32_t checkedFrames = 0;
  std::uint32_t repairedFrames = 0;
  SimDuration time = 0;
};

class ConfigPort {
 public:
  /// Wire-fault model: called once per download with the bitstream; reports
  /// the bits to flip and the truncation point, and never mutates it.
  using DownloadTamperHook = std::function<DownloadTamper(const Bitstream&)>;

  ConfigPort(Device& device, ConfigPortSpec spec)
      : device_(&device), spec_(spec), expected_(device.image()) {}

  const ConfigPortSpec& spec() const { return spec_; }
  const ConfigPortStats& stats() const { return stats_; }

  /// Installs (or clears, with nullptr-like empty function) the wire-fault
  /// model applied to subsequent downloads. While a hook is active the
  /// device's compiled fast path is inhibited: fault campaigns must run the
  /// interpretive evaluation with its fault semantics, never a compiled
  /// kernel built from an image the wire may have mangled mid-flight.
  void setTamperHook(DownloadTamperHook hook) {
    tamper_ = std::move(hook);
    device_->setFastPathInhibited(static_cast<bool>(tamper_));
  }

  /// Golden image: every *intended* download payload lands here even when
  /// the wire tampers with what reached the device, so the scrubber knows
  /// what the configuration should be.
  const ConfigImage& expectedImage() const { return expected_; }

  /// Re-bases the golden image on the device's current contents. Call when
  /// configuration is changed behind the port's back (e.g. direct
  /// Device::applyBitstream during setup, or clearConfig).
  void resyncExpected() { expected_ = device_->image(); }

  /// Reads back the frames named by `bs` and compares them with the
  /// payloads that were supposed to arrive. Charges readback time.
  VerifyResult verifyDownload(const Bitstream& bs);

  /// One full readback scrub pass: compares every live frame with the
  /// golden image (charged as one CRC word of readback per frame) and
  /// re-downloads any mismatching frames. The repair write bypasses the
  /// tamper hook (modelled as a dedicated, checked scrub datapath; also
  /// guarantees the scrubber converges).
  ScrubResult scrub();

  /// Pure cost queries (no device mutation).
  SimDuration downloadCost(const Bitstream& bs) const;
  SimDuration fullDownloadCost() const;  ///< cost of any full bitstream
  SimDuration stateReadCost(std::size_t ffBits) const;
  SimDuration stateWriteCost(std::size_t ffBits) const;

  /// The bitstream that gives each frame of columns [c0, c1] the payload
  /// `src` carries for it (blank where it carries none) and leaves every
  /// other column as the port intends it. On a frame-addressable port: the
  /// range's frames, or with `changedOnly` just those that differ from the
  /// configuration RAM or the golden image (possibly none). On a
  /// serial-full-only port: the whole image, every other column from the
  /// golden image (expectedImage()), so an upset there is overwritten with
  /// the intended value and never becomes it. Throws std::invalid_argument
  /// when a frame of `src` or the range does not fit the device.
  Bitstream columnsBitstream(const Bitstream& src, std::uint16_t c0,
                             std::uint16_t c1, bool changedOnly) const;

  /// Writes a bitstream into the device and returns the time it took.
  /// A partial bitstream on a port without partial support throws, and so
  /// does a frame outside the device (std::out_of_range), before anything
  /// is written or counted. Unless the tamper hook reports flips or a
  /// truncation, `bs` lands untouched.
  SimDuration download(const Bitstream& bs);

  /// Charge the port for reading back / writing `ffBits` register bits.
  /// The registers themselves move per circuit through Device::ffStateAt;
  /// in the OS only core/circuit_io calls these. Throw std::logic_error
  /// without stateAccess.
  SimDuration chargeStateRead(std::size_t ffBits);
  SimDuration chargeStateWrite(std::size_t ffBits);

 private:
  SimDuration appliedDownloadCost(const Bitstream& bs,
                                  std::size_t framesApplied) const;
  SimDuration chargeState(SimDuration t, std::size_t ffBits,
                          std::uint64_t& moves);

  Device* device_;
  ConfigPortSpec spec_;
  ConfigPortStats stats_;
  ConfigImage expected_;
  DownloadTamperHook tamper_;
};

}  // namespace vfpga
