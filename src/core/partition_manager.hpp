// FPGA partitioning (§4): the device's column strips are allocated to
// configurations like variable (or fixed) memory partitions, so several
// circuits compute concurrently and reconfiguration touches only the
// partition being (re)loaded.
//
// Responsibilities beyond the raw StripAllocator bookkeeping:
//  * downloading a registered (relocatable) circuit into the strip it was
//    granted, as the registry relocated it there (ConfigRegistry::placed);
//  * blanking leftover columns when a fixed partition is wider than the
//    circuit (stale configuration from a previous occupant must not
//    decode);
//  * garbage collection: when a request would fit after compaction, move
//    busy strips left — each move costs a state readback, a re-download
//    and one state writeback (the install resumes the saved registers),
//    which is exactly why the paper says relocation "cannot be frequently
//    applied".
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "core/circuit_io.hpp"
#include "core/config_registry.hpp"
#include "core/strip_allocator.hpp"
#include "sim/trace.hpp"

namespace vfpga {

struct PartitionManagerOptions {
  FitPolicy fit = FitPolicy::kFirstFit;
  /// Empty = variable-size partitions; otherwise fixed widths at init.
  std::vector<std::uint16_t> fixedWidths;
  bool garbageCollect = true;
  /// Download verification / retry policy (defaults: off — identical
  /// behaviour and cost to a manager without fault tolerance).
  fault::RecoveryOptions recovery;
  /// Fault plan applied to relocation state snapshots (nullptr = none).
  fault::FaultPlan* plan = nullptr;
};

class PartitionManager {
 public:
  PartitionManager(Device& device, ConfigPort& port, ConfigRegistry& registry,
                   Compiler& compiler, PartitionManagerOptions options = {});

  struct LoadResult {
    PartitionId partition = kNoPartition;
    SimDuration cost = 0;       ///< download (+ state init) time
    SimDuration restoreCost = 0;///< writeback of the resumed snapshot
    bool resumed = false;       ///< registers came from the snapshot
    SimDuration gcCost = 0;     ///< additional compaction time, if GC ran
    bool garbageCollected = false;
    bool downloadFailed = false;///< retry budget exhausted; caller unloads
  };

  /// Fault-tolerance counters (all zero without a plan/verification).
  struct FtStats {
    std::uint64_t downloadRetries = 0;
    std::uint64_t downloadAborts = 0;
    std::uint64_t downloadFailures = 0;
    std::uint64_t stateCrcFailures = 0;
    std::uint64_t quarantinedStrips = 0;
    std::uint64_t quarantineRelocations = 0;
    std::uint64_t stripsHealed = 0;
  };

  /// Allocates a strip for `id`'s width, relocates the circuit there and
  /// installs it, resuming `resume`'s registers when given (a migrated or
  /// checkpointed task's). nullopt when no strip fits (even after GC, when
  /// GC is enabled); the caller queues the task, as §4 prescribes.
  std::optional<LoadResult> load(ConfigId id,
                                 const SealedState* resume = nullptr);

  /// Releases the partition. On a healthy device the configuration stays
  /// in the RAM (harmless) and the columns just become reusable; on a
  /// degraded device (any quarantined column) the strip is deactivated
  /// first and the blanking download time is returned (0 otherwise).
  SimDuration unload(PartitionId id);

  /// Whether `id` could ever be satisfied on a device holding only the
  /// pinned partitions (quarantined columns shrink what "ever" means).
  bool feasible(ConfigId id) const;
  /// Marks a loaded partition as never unloaded (a kernel service): its
  /// columns stop counting as room for other circuits in feasible().
  void pin(PartitionId id);

  /// Outcome of a quarantine request for one failed column.
  struct QuarantineResult {
    bool quarantined = false;    ///< the column is now fenced off
    bool deferred = false;       ///< occupant could not move yet; retry later
    bool relocated = false;      ///< an occupant was moved out of the way
    SimDuration cost = 0;        ///< relocation + download time charged
    PartitionId movedFrom = kNoPartition;
    PartitionId movedTo = kNoPartition;
  };

  /// Fences off a permanently failed device column. An idle strip is
  /// quarantined immediately; a busy strip first has its occupant relocated
  /// to another strip (compacting if that is what it takes). When no
  /// destination exists *right now* the request is deferred — the caller
  /// retries after the next unload.
  QuarantineResult quarantine(std::uint16_t column);

  /// Reverses a quarantine after a transient fault healed: the column's
  /// strip becomes allocatable again and merges with idle neighbours. The
  /// recovered columns hold whatever configuration the failure left behind,
  /// so they are blanked before reuse; the returned cost is that
  /// deactivation download (0 when the column was never quarantined).
  SimDuration unquarantine(std::uint16_t column);

  const FtStats& ftStats() const { return ftStats_; }

  /// Harness for the circuit loaded in a partition (valid until unload or
  /// the next garbage collection, which may move it).
  LoadedCircuit loaded(PartitionId id);
  /// The relocated circuit in a partition (the registry's copy).
  const CompiledCircuit& circuitIn(PartitionId id) const;
  /// All currently occupied partitions, ascending (deterministic order for
  /// whole-device sweeps like the post-scrub equivalence audit).
  std::vector<PartitionId> occupiedPartitions() const;

  const StripAllocator& allocator() const { return alloc_; }
  std::uint64_t garbageCollections() const { return gcRuns_; }
  std::uint64_t relocations() const { return relocationsDone_; }

  /// Event sink for kRelocate records (the manager has no Trace of its
  /// own); the kernel binds this to its trace ring.
  void setTraceSink(TraceSink sink) { sink_ = std::move(sink); }

  /// Fired after every occupancy mutation ("allocate", "release",
  /// "relocate", "quarantine"), once the strip table reflects it; the
  /// binder snapshots allocator() state, e.g. into an occupancy heatmap
  /// (obs/heatmap.hpp via OsKernel::attachHeatmap).
  using OccupancyObserver = std::function<void(const char* event)>;
  void setOccupancyObserver(OccupancyObserver observer) {
    occupancyObserver_ = std::move(observer);
  }

  /// Verifies the PM* invariants (every busy strip has an occupant, every
  /// occupant sits inside its strip) on top of the allocator's own AL*
  /// checks; throws analysis::InvariantViolation on any breach. Runs
  /// automatically after load/unload when VFPGA_CHECK_INVARIANTS is
  /// enabled.
  void checkInvariants() const;

 private:
  Device* dev_;
  ConfigPort* port_;
  ConfigRegistry* registry_;
  Compiler* compiler_;
  PartitionManagerOptions options_;
  StripAllocator alloc_;
  /// A partition's config and its copy relocated into the strip.
  struct Occupant {
    ConfigId config;
    const CompiledCircuit* circuit;
  };
  std::unordered_map<PartitionId, Occupant> occupants_;
  std::vector<PartitionId> pinned_;  ///< see pin()
  std::uint64_t gcRuns_ = 0;
  std::uint64_t relocationsDone_ = 0;
  TraceSink sink_;
  OccupancyObserver occupancyObserver_;
  FtStats ftStats_;

  void notifyOccupancy(const char* event) {
    if (occupancyObserver_) occupancyObserver_(event);
  }

  /// Installs a relocated circuit into its strip, resuming `resume`
  /// (nullptr = initial register values), counting retries and failures.
  Installed installInto(const CompiledCircuit& c, const SealedState* resume);
  SimDuration blankColumns(std::uint16_t x0, std::uint16_t width);
  SimDuration blankInactiveStrips();
  /// Moves one occupant's circuit from `fromX0` to `toX0`: register save
  /// (sealed), blank, install the copy for `toX0` resuming the registers.
  SimDuration relocateOccupant(Occupant& occ, std::uint16_t fromX0,
                               std::uint16_t toX0);
  SimDuration compactNow();
};

}  // namespace vfpga
