// Static timing analysis over a configured device: per-endpoint arrival
// times and traced critical paths (cell coordinates from source register /
// input pad to destination register / output pad).
#pragma once

#include <string>
#include <vector>

#include "fabric/device.hpp"

namespace vfpga {

struct TimingPath {
  SimDuration arrival = 0;        ///< data arrival at the endpoint
  std::string endpoint;           ///< "ff(x,y)" or "pad_slot N"
  std::string startpoint;         ///< "ff(x,y)" or "pad_slot N"
  std::vector<std::string> cells; ///< LUTs traversed, source to sink
};

/// Why a timing analysis has no paths (or cannot be trusted). An empty path
/// list alone is ambiguous: a blank device and a corrupted one both yield
/// zero paths, but only the latter must fail timing sign-off.
enum class TimingStatus {
  kOk,            ///< configuration elaborated cleanly; paths are valid
  kNoLogic,       ///< clean configuration, but no cells to time
  kConfigFaulted  ///< elaboration reported faults; timing is meaningless
};

/// Full analysis result: paths plus the status that says whether the empty
/// case means "nothing configured" or "configuration is broken".
struct TimingAnalysis {
  TimingStatus status = TimingStatus::kNoLogic;
  std::vector<TimingPath> paths;            ///< slowest first, ≤ topN
  std::vector<std::string> configFaults;    ///< elaboration faults, if any
  SimDuration minClockPeriod = 0;           ///< device min period (ok only)

  bool ok() const { return status != TimingStatus::kConfigFaulted; }
};

/// Analyzes the currently configured design. On a faulted configuration the
/// result carries the fault strings and an empty path list; TA lint rules
/// turn that into a hard TA006 error instead of a silent clean report.
TimingAnalysis analyzeTiming(Device& device, std::size_t topN);

/// The `topN` slowest register-to-register / pad-to-pad paths of the
/// currently configured design, slowest first. Empty when the
/// configuration has faults or contains no logic — callers that must
/// distinguish the two use analyzeTiming().
std::vector<TimingPath> criticalPaths(Device& device, std::size_t topN);

/// Renders a classic timing report. On a faulted configuration the report
/// says so explicitly rather than printing an empty-but-clean table.
std::string renderTimingReport(Device& device, std::size_t topN);

}  // namespace vfpga
