// Segmentation (§2): "decomposes the function to be downloaded in the FPGA
// into smaller parts computing a self-contained sub-function and, as a
// consequence, having variable size."
//
// Segments are relocatable compiled circuits of varying widths, held in the
// manager's own ConfigRegistry (names are unique). A segment that is not
// resident faults on access: space is carved from the column allocator
// (evicting the least-recently / first-loaded resident segments until the
// new one fits) and the segment is installed with its initial register
// values. Compaction moves resident segments with their registers. Several
// segments are resident at once — the working set of the virtual circuit.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "core/config_registry.hpp"
#include "core/strip_allocator.hpp"
#include "fabric/config_port.hpp"
#include "fault/fault_plan.hpp"

namespace vfpga {

using SegmentId = ConfigId;

enum class ReplacementPolicy : std::uint8_t { kFifo, kLru };

class SegmentManager {
 public:
  /// Throws std::invalid_argument on a serial-full-only port.
  SegmentManager(Device& device, ConfigPort& port, Compiler& compiler,
                 ReplacementPolicy policy = ReplacementPolicy::kLru);

  /// Declares a segment (relocatable circuit, uniquely named).
  SegmentId addSegment(const CompiledCircuit& circuit);

  struct AccessResult {
    bool fault = false;
    std::size_t evicted = 0;
    SimDuration cost = 0;
  };
  /// Touches a segment, loading it on a fault.
  AccessResult access(SegmentId id);

  bool resident(SegmentId id) const { return residency_.count(id) != 0; }
  /// Harness for a resident segment where it currently sits.
  LoadedCircuit loaded(SegmentId id);
  std::size_t residentCount() const { return residency_.size(); }

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t faults() const { return faults_; }
  std::uint64_t evictions() const { return evictions_; }

  /// Installs seeded fault injection (not owned; outlives the manager).
  /// With verifyResidency on, a corrupted residency-table entry is
  /// detected at access time and recovers by dropping the entry and
  /// re-faulting the segment; with it off the corrupt mapping is followed
  /// — the silent-wrong-state hazard lint rule FT008 exists to flag.
  void setFaultPlan(fault::FaultPlan* plan, bool verifyResidency = true) {
    plan_ = plan;
    verifyResidency_ = verifyResidency;
  }
  bool faultPlanInstalled() const { return plan_ != nullptr; }
  /// Table corruptions caught by verification (each forced a re-fault).
  std::uint64_t tableCorruptionsDetected() const { return corruptDetected_; }
  /// Corruptions that went unverified (wrong mapping followed).
  std::uint64_t silentTableCorruptions() const { return corruptSilent_; }
  double faultRate() const {
    return accesses_ ? static_cast<double>(faults_) / accesses_ : 0.0;
  }

  /// Verifies the SG* invariants (resident segments point at busy strips,
  /// no two segments share one) on top of the allocator's AL* checks;
  /// throws analysis::InvariantViolation on any breach. Runs automatically
  /// after every access when VFPGA_CHECK_INVARIANTS is enabled.
  void checkInvariants() const;

 private:
  Device* dev_;
  ConfigPort* port_;
  Compiler* compiler_;
  ReplacementPolicy policy_;
  StripAllocator alloc_;
  ConfigRegistry segments_;  ///< canonical (compile-time strip) + placed
  struct Residency {
    PartitionId strip;
    std::uint64_t loadedAt;
    std::uint64_t lastUse;
    const CompiledCircuit* placed;  ///< the segment relocated into its strip
  };
  std::unordered_map<SegmentId, Residency> residency_;
  std::uint64_t clock_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t evictions_ = 0;
  fault::FaultPlan* plan_ = nullptr;
  bool verifyResidency_ = true;
  std::uint64_t corruptDetected_ = 0;
  std::uint64_t corruptSilent_ = 0;

  std::optional<SegmentId> evictionVictim() const;
};

}  // namespace vfpga
