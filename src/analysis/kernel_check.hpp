// OS-layer invariant verifiers: the AL/PG/OV/PM/TS/SG rules.
//
// Each verifier is a pure function over a *value-level snapshot* of a
// manager's bookkeeping (strip lists, page-table entries, task control
// blocks), so the same code backs two callers: the managers' own
// VFPGA_CHECK_INVARIANTS-gated hooks (which verify their live state after
// every mutation and throw InvariantViolation on errors) and the tests,
// which corrupt a snapshot deliberately and assert on the rule ID.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "analysis/diagnostics.hpp"
#include "compile/compiler.hpp"
#include "core/strip_allocator.hpp"
#include "core/task.hpp"

namespace vfpga::analysis {

/// AL001-AL005: strips must tile [0, columns) left to right with no gaps,
/// overlaps, zero widths or duplicate ids; in variable mode adjacent idle
/// (non-faulty) strips must have been merged; a quarantined strip is never
/// busy.
void verifyStrips(std::span<const Strip> strips, std::uint16_t columns,
                  bool fixedMode, Report& rep);

/// One resident page of a PageManager (PageManager::pageTable()).
struct PageTableEntry {
  std::uint32_t function = 0;
  std::uint32_t page = 0;
  std::uint64_t loadedAt = 0;
  std::uint64_t lastUse = 0;
};

/// PG001-PG005: residency within capacity, entries naming declared
/// functions and in-range pages, no duplicates, timestamps ordered and not
/// in the future. `functionPages[f]` is the page count of function f;
/// `clock` is the manager's current logical time.
void verifyPageTable(std::span<const PageTableEntry> entries,
                     std::span<const std::uint32_t> functionPages,
                     std::uint32_t residentCapacity, std::uint64_t clock,
                     Report& rep);

/// OV001-OV003: the resident circuit inside columns [0, residentWidth),
/// every overlay inside [residentWidth, cols), and the active overlay id
/// naming a declared overlay. `resident` may be null (not yet installed).
void verifyOverlayLayout(const CompiledCircuit* resident,
                         std::span<const CompiledCircuit> overlays,
                         std::optional<std::uint32_t> active,
                         std::uint16_t residentWidth, std::uint16_t cols,
                         Report& rep);

/// One partition occupant (PartitionManager bookkeeping).
struct OccupantInfo {
  PartitionId partition = kNoPartition;
  std::uint16_t x0 = 0;  ///< occupant circuit's region start column
  std::uint16_t w = 0;   ///< occupant circuit's region width
  std::string name;
};

/// PM001-PM002: every busy strip has a registered occupant and every
/// occupant's region sits inside its strip.
void verifyOccupancy(std::span<const Strip> strips,
                     std::span<const OccupantInfo> occupants, Report& rep);

/// One resident segment (SegmentManager bookkeeping).
struct SegmentResidencyInfo {
  std::uint32_t segment = 0;
  PartitionId strip = kNoPartition;
};

/// SG001-SG002: resident segments point at busy strips of the allocator
/// and no two segments share a strip.
void verifySegmentResidency(std::span<const Strip> strips,
                            std::span<const SegmentResidencyInfo> resident,
                            Report& rep);

/// TS001-TS004: per-task state-machine legality — op index within the
/// program, done implies the program completed with no residual work, and
/// a partition is only held while running on the FPGA.
void verifyTasks(std::span<const TaskRuntime> tasks, Report& rep);

/// TS005: scheduler queues only hold tasks in the matching state
/// (cpuReady -> kReady, fpgaWaiting -> kWaitingFpga) and valid indices.
void verifyTaskQueues(std::span<const TaskRuntime> tasks,
                      std::span<const std::size_t> cpuReady,
                      std::span<const std::size_t> fpgaWaiting, Report& rep);

/// One register snapshot the dynamic loader holds (DynamicLoader).
struct SnapshotInfo {
  std::size_t owner = 0;  ///< task index
  ConfigId config = kNoConfig;
};

/// TS006: every snapshot belongs to a live task whose current op runs the
/// snapshot's circuit and was cut mid-op (some, not all, of its cycles
/// ran).
void verifySnapshots(std::span<const TaskRuntime> tasks,
                     std::span<const SnapshotInfo> snapshots, Report& rep);

}  // namespace vfpga::analysis
