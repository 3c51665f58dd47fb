// Deterministic, seedable fault injection for the VFPGA stack.
//
// RAM-configured FPGAs fail in practice exactly where this simulator was
// assuming perfection: configuration downloads get corrupted or truncated
// on the wire, the configuration RAM takes background single-event upsets,
// saved register snapshots rot, and whole column strips wear out. A
// FaultPlan packages those fault classes behind one seeded Rng (plus a
// scripted list of permanent strip failures), so a "campaign" is fully
// reproducible: same spec + same seed -> bit-identical fault sequence,
// which the recovery machinery (ConfigPort scrubbing, retry-with-backoff,
// strip quarantine, watchdog preemption) must then survive.
//
// The plan is *passive*: it never mutates the system on its own. The
// ConfigPort calls tamperDownload() as its wire-level tamper hook, the
// loader/partition manager call corruptState() on saved snapshots, and the
// kernel's scrubber calls drawUpsets() once per scrub tick. Counters track
// what was injected (not what was detected — detection lives in the
// component stats).
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/config_port.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace vfpga::fault {

/// A scripted failure: at simulated time `at`, device column `column`
/// stops holding configuration reliably and must be quarantined. With
/// healAfter == 0 the failure is permanent; a positive healAfter models a
/// transient fault (thermal event, marginal timing) — the column becomes
/// trustworthy again `healAfter` after the failure and the kernel may
/// un-quarantine it.
struct StripFailureEvent {
  SimTime at = 0;
  std::uint16_t column = 0;
  SimDuration healAfter = 0;
};

struct FaultPlanSpec {
  std::uint64_t seed = 1;
  /// P(a download transfer has 1..3 payload bits flipped on the wire).
  double downloadCorruptRate = 0.0;
  /// P(a download transfer is truncated after a random frame prefix).
  double downloadAbortRate = 0.0;
  /// P(a saved register snapshot has one bit flipped while parked).
  double stateCorruptRate = 0.0;
  /// Mean background configuration upsets injected per scrub tick
  /// (Poisson-distributed).
  double meanUpsetsPerScrub = 0.0;
  /// P(an FPGA execution hangs and never signals completion).
  double execHangRate = 0.0;
  /// P(an overlay "hit" actually reuses a strip whose overlay was lost —
  /// evicted or clobbered — since the last invocation).
  double overlayStaleReuseRate = 0.0;
  /// P(a resident segment's table entry is corrupted at access time).
  double segmentTableCorruptRate = 0.0;
  /// P(a resident page's residency bit is lost at touch time).
  double pageResidencyLossRate = 0.0;
  /// Scripted permanent strip failures, in any order.
  std::vector<StripFailureEvent> stripFailures;
};

/// What the plan injected so far (attempts, not detections).
struct FaultCounters {
  std::uint64_t corruptedDownloads = 0;
  std::uint64_t abortedDownloads = 0;
  std::uint64_t flippedBits = 0;
  std::uint64_t stateCorruptions = 0;
  std::uint64_t upsets = 0;
  std::uint64_t hangs = 0;
  std::uint64_t staleOverlayReuses = 0;
  std::uint64_t segmentTableCorruptions = 0;
  std::uint64_t pageResidencyLosses = 0;
};

class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanSpec spec);

  const FaultPlanSpec& spec() const { return spec_; }
  const FaultCounters& counters() const { return counters_; }

  /// ConfigPort tamper hook: draws a truncation point and bit flips in the
  /// frames that still reach the device, and reports both; the port applies
  /// them after the stream CRC and charges the prefix. `bs` is only read.
  DownloadTamper tamperDownload(const Bitstream& bs);

  /// Flips one bit of a saved register snapshot with stateCorruptRate
  /// probability. Returns true when a bit was flipped.
  bool corruptState(std::vector<bool>& bits);

  /// Background configuration upsets for one scrub interval: a
  /// Poisson(meanUpsetsPerScrub) count of uniformly drawn bit indices in
  /// [0, imageBits).
  std::vector<std::uint32_t> drawUpsets(std::uint32_t imageBits);

  /// One draw per dispatched FPGA execution: true = this execution hangs.
  bool execHangs();

  /// One draw per overlay invocation hit: true = the overlay the manager
  /// believes resident is stale (evicted/clobbered since last use).
  bool reuseEvictedOverlay();

  /// One draw per segment access hit: true = the residency table entry is
  /// corrupt and must not be trusted.
  bool corruptSegmentTable();

  /// One draw per resident page touch: true = the page's residency bit was
  /// lost (the configuration RAM no longer holds it).
  bool dropPageResidency();

 private:
  FaultPlanSpec spec_;
  Rng rng_;
  FaultCounters counters_;
};

}  // namespace vfpga::fault
