#include "fault/fault_plan.hpp"

#include <cmath>

namespace vfpga::fault {

FaultPlan::FaultPlan(FaultPlanSpec spec) : spec_(spec), rng_(spec.seed) {}

DownloadTamper FaultPlan::tamperDownload(const Bitstream& bs) {
  DownloadTamper tamper;
  if (bs.frames.empty()) return tamper;

  if (spec_.downloadAbortRate > 0.0 && rng_.bernoulli(spec_.downloadAbortRate)) {
    tamper.framesApplied = rng_.below(bs.frames.size());
    ++counters_.abortedDownloads;
  }
  const std::size_t applied =
      tamper.framesApplied == kAllFrames
          ? bs.frames.size()
          : static_cast<std::size_t>(tamper.framesApplied);
  if (applied > 0 && spec_.downloadCorruptRate > 0.0 &&
      rng_.bernoulli(spec_.downloadCorruptRate)) {
    const std::uint32_t flips = 1 + static_cast<std::uint32_t>(rng_.below(3));
    for (std::uint32_t i = 0; i < flips; ++i) {
      const std::size_t frame = rng_.below(applied);
      if (bs.frameBits == 0) continue;
      tamper.flips.emplace_back(frame, rng_.below(bs.frameBits));
      ++counters_.flippedBits;
    }
    ++counters_.corruptedDownloads;
  }
  return tamper;
}

bool FaultPlan::corruptState(std::vector<bool>& bits) {
  if (bits.empty() || spec_.stateCorruptRate <= 0.0) return false;
  if (!rng_.bernoulli(spec_.stateCorruptRate)) return false;
  const std::size_t bit = rng_.below(bits.size());
  bits[bit] = !bits[bit];
  ++counters_.stateCorruptions;
  return true;
}

std::vector<std::uint32_t> FaultPlan::drawUpsets(std::uint32_t imageBits) {
  std::vector<std::uint32_t> upsets;
  if (imageBits == 0 || spec_.meanUpsetsPerScrub <= 0.0) return upsets;
  // Knuth's product-of-uniforms Poisson sampler; the means used here are
  // small (a handful of upsets per scrub), so the loop is short.
  const double limit = std::exp(-spec_.meanUpsetsPerScrub);
  double product = 1.0;
  std::uint32_t count = 0;
  for (;;) {
    product *= rng_.uniform();
    if (product <= limit) break;
    ++count;
  }
  upsets.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    upsets.push_back(static_cast<std::uint32_t>(rng_.below(imageBits)));
  }
  counters_.upsets += count;
  return upsets;
}

bool FaultPlan::execHangs() {
  if (spec_.execHangRate <= 0.0) return false;
  if (!rng_.bernoulli(spec_.execHangRate)) return false;
  ++counters_.hangs;
  return true;
}

bool FaultPlan::reuseEvictedOverlay() {
  if (spec_.overlayStaleReuseRate <= 0.0) return false;
  if (!rng_.bernoulli(spec_.overlayStaleReuseRate)) return false;
  ++counters_.staleOverlayReuses;
  return true;
}

bool FaultPlan::corruptSegmentTable() {
  if (spec_.segmentTableCorruptRate <= 0.0) return false;
  if (!rng_.bernoulli(spec_.segmentTableCorruptRate)) return false;
  ++counters_.segmentTableCorruptions;
  return true;
}

bool FaultPlan::dropPageResidency() {
  if (spec_.pageResidencyLossRate <= 0.0) return false;
  if (!rng_.bernoulli(spec_.pageResidencyLossRate)) return false;
  ++counters_.pageResidencyLosses;
  return true;
}

}  // namespace vfpga::fault
