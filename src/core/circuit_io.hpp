// One path puts a compiled circuit and its registers on the fabric, and one
// rule says what that costs. Every technique manager and the kernel's
// migration and checkpoint hand-offs go through it; nothing else in
// src/core moves a circuit's registers or charges the port for them.
//
// The rule (paper §3: preemption needs observable, controllable state):
//  * a register save is a state readback and a restore a state writeback,
//    each charged for the circuit's FF count; both need state access;
//  * an install gives the registers their initial values, a charged
//    writeback when the port has state access and some value is 1 or no
//    configuration is written (the resident circuit's owner changes), and
//    free with the configuration otherwise (init-by-configuration);
//  * every resume is an install's: a carried snapshot (a relocation, a
//    migration, a checkpoint or a preempted task's) replaces the initial
//    values, so its circuit pays one writeback, never two.
//
// A snapshot belongs to one owner: the circuit it was read from when a
// manager relocates it, the task it was cut from in the dynamic loader.
#pragma once

#include <cstdint>
#include <vector>

#include "compile/compiler.hpp"
#include "fabric/config_port.hpp"
#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"

namespace vfpga {

/// A register snapshot parked off the fabric, sealed with its CRC so that
/// rot while parked is caught before the bits are restored.
struct SealedState {
  std::vector<bool> bits;
  std::uint16_t crc = 0;

  /// Records the CRC of `bits`, then lets `plan` (nullptr = none) rot them.
  void seal(fault::FaultPlan* plan);
  bool intact() const;
};

struct Installed {
  fault::DownloadOutcome download;
  SimDuration stateTime = 0;   ///< register writeback charged
  bool resumed = false;        ///< registers came from the snapshot
  bool resumeCorrupt = false;  ///< the snapshot failed its CRC

  bool ok() const { return download.ok; }
  SimDuration time() const { return download.time + stateTime; }
};

/// Downloads `bs`, which configures `c`, through fault::downloadWithRetry
/// (an empty bitstream transfers nothing). On success the registers get
/// `resume`'s bits when it is given, non-empty and intact, charged as a
/// writeback, else their initial values under the rule above. A failed
/// download leaves them alone.
Installed installCircuit(Device& dev, ConfigPort& port,
                         const CompiledCircuit& c, const Bitstream& bs,
                         const fault::RecoveryOptions& recovery = {},
                         const SealedState* resume = nullptr);

/// Reads `c`'s registers into `out` in mapped-netlist order (stable across
/// relocation) and charges the readback.
SimDuration saveRegisters(Device& dev, ConfigPort& port,
                          const CompiledCircuit& c, std::vector<bool>& out);

/// saveRegisters into a snapshot sealed before `plan` (nullptr = none) may
/// rot it. A circuit without registers, or a port without state access,
/// leaves `out` empty at no cost: the circuit resumes from initial values.
SimDuration saveSealed(Device& dev, ConfigPort& port,
                       const CompiledCircuit& c, SealedState& out,
                       fault::FaultPlan* plan);

}  // namespace vfpga
