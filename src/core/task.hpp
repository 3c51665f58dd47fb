// Task model for the multitasking OS simulation.
//
// A task is a program of operations: CPU bursts and FPGA executions
// ("concurrent tasks may need to use the FPGA to perform specific ...
// algorithms in hardware", §3). FPGA executions name a registered
// configuration and a cycle count; the kernel translates cycles into
// simulated time using the configuration's clock period on the target
// device.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/config_registry.hpp"
#include "core/strip_allocator.hpp"
#include "sim/types.hpp"

namespace vfpga {

struct CpuBurst {
  SimDuration duration = 0;
};

struct FpgaExec {
  ConfigId config = kNoConfig;
  std::uint64_t cycles = 0;
};

using TaskOp = std::variant<CpuBurst, FpgaExec>;

struct TaskSpec {
  std::string name;
  SimTime arrival = 0;
  /// Scheduling priority (higher = more urgent); only consulted when the
  /// kernel runs with OsOptions::priorityScheduling.
  int priority = 0;
  std::vector<TaskOp> ops;
  /// Non-empty for the continuation of a live-migrated or checkpointed
  /// task: the register snapshot (mapped-netlist order) the kernel writes
  /// back through the configuration port at the first FPGA grant, then
  /// clears.
  std::vector<bool> migratedState;
};

enum class TaskState : std::uint8_t {
  kNew,
  kReady,        ///< waiting for the CPU
  kRunningCpu,
  kWaitingFpga,  ///< blocked on an FPGA grant
  kRunningFpga,  ///< circuit computing in the fabric
  kDone,
  kParked,       ///< permanently stopped by the kernel after an
                 ///< unrecoverable fault (graceful degradation terminal)
  kMigrated,     ///< handed off to another kernel (cluster live migration);
                 ///< terminal *in this kernel* — the continuation runs
                 ///< elsewhere with the remaining ops and cycles
};

const char* taskStateName(TaskState s);

/// Kernel-side task control block.
struct TaskRuntime {
  TaskSpec spec;
  TaskState state = TaskState::kNew;
  std::size_t opIndex = 0;

  // Progress of the current op.
  SimDuration cpuRemaining = 0;
  std::uint64_t cyclesRemaining = 0;

  // FPGA bookkeeping.
  SimTime fpgaWaitStart = 0;
  PartitionId partition = kNoPartition;
  /// Aging rule for the roll-back regime: a task whose execution was
  /// discarded once runs to completion at its next grant, guaranteeing
  /// progress (otherwise two sliced tasks can roll each other back
  /// forever).
  bool runToCompletionNext = false;

  // Outcome statistics.
  SimTime finish = 0;
  SimDuration fpgaWaitTotal = 0;
  std::uint64_t grants = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t watchdogTrips = 0;

  // Resource-ledger attribution (obs/profile/ledger.hpp): simulated cost
  // this task *paid for*, charged at dispatch — a rolled-back execution
  // still consumed the fabric, so its cycles stay on the bill.
  std::uint64_t cyclesExecuted = 0;
  std::uint64_t configBitsWritten = 0;  ///< config-port bits (incl. state)
  std::uint64_t downloads = 0;          ///< grants that paid a download
  std::uint64_t configHits = 0;         ///< grants served by resident config
  std::uint64_t relocations = 0;        ///< times compaction/quarantine
                                        ///< moved this task's partition
  SimDuration fpgaExecTotal = 0;        ///< fabric compute time charged
  std::uint64_t checkpoints = 0;        ///< durable checkpoints written
  std::uint64_t restores = 0;           ///< admissions from a checkpoint
  std::uint64_t checkpointedBytes = 0;  ///< bytes written to the store

  bool done() const { return state == TaskState::kDone; }
  /// Done, parked or migrated away: the kernel will never run this task
  /// again.
  bool terminal() const {
    return state == TaskState::kDone || state == TaskState::kParked ||
           state == TaskState::kMigrated;
  }
};

/// Total FPGA cycles a spec requests across all its ops.
std::uint64_t totalFpgaCycles(const TaskSpec& spec);

}  // namespace vfpga
