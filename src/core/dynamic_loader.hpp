// Dynamic loading (§3): the whole device is multiplexed between registered
// configurations. activate() makes a configuration resident — saving the
// outgoing circuit's register state (when it has any and the port supports
// readback), downloading the new configuration, and restoring the incoming
// circuit's last saved state (or its declared initial values on first
// activation) — and returns the simulated time the switch cost.
//
// On a partial-reconfiguration port the download writes only the frames
// that differ between the current configuration RAM and the target image;
// on a serial-full-only port every switch is a full-device download (the
// XC4000 regime the paper describes).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "compile/loaded_circuit.hpp"
#include "core/circuit_io.hpp"
#include "core/config_registry.hpp"

namespace vfpga {

class DynamicLoader {
 public:
  DynamicLoader(Device& device, ConfigPort& port, ConfigRegistry& registry)
      : dev_(&device), port_(&port), registry_(&registry) {}

  struct SwitchCost {
    SimDuration total = 0;
    SimDuration saveTime = 0;
    SimDuration downloadTime = 0;
    SimDuration restoreTime = 0;
    bool downloaded = false;
    bool restoredSavedState = false;
    bool downloadFailed = false; ///< retry budget exhausted, config bad
  };

  struct Stats {
    std::uint64_t switches = 0;
    std::uint64_t downloads = 0;
    std::uint64_t downloadRetries = 0;
    std::uint64_t downloadAborts = 0;
    std::uint64_t verifyFailures = 0;
    std::uint64_t stateCrcFailures = 0;
  };

  /// Makes `id` resident. `saveOutgoing = false` implements the paper's
  /// roll-back alternative: the preempted circuit's intermediate results
  /// are abandoned and it will restart from its initial state.
  SwitchCost activate(ConfigId id, bool saveOutgoing = true);

  /// Drops any memory of a configuration's saved state (e.g. after its
  /// task finished); the next activation starts from initial values.
  void forgetState(ConfigId id) { savedStates_.erase(id); }

  ConfigId current() const { return current_; }
  bool hasSavedState(ConfigId id) const {
    return savedStates_.count(id) != 0;
  }

  /// Harness for the currently resident configuration.
  LoadedCircuit loaded();

  std::uint64_t switches() const { return stats_.switches; }
  const Stats& stats() const { return stats_; }

  /// Download verification / retry policy (defaults: off — behaviour and
  /// cost identical to a loader without fault tolerance).
  void setRecovery(const fault::RecoveryOptions& opts) { recovery_ = opts; }
  /// Fault plan applied to saved snapshots (nullptr = no injection).
  void setFaultPlan(fault::FaultPlan* plan) { plan_ = plan; }

 private:
  Device* dev_;
  ConfigPort* port_;
  ConfigRegistry* registry_;
  ConfigId current_ = kNoConfig;
  std::unordered_map<ConfigId, SealedState> savedStates_;
  Stats stats_;
  fault::RecoveryOptions recovery_;
  fault::FaultPlan* plan_ = nullptr;
};

}  // namespace vfpga
