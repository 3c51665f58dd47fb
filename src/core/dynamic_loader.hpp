// Dynamic loading (§3): the whole device is multiplexed between registered
// configurations. activate() makes a configuration resident for an owner —
// saving the outgoing owner's registers (when asked, and when the circuit
// has any and the port supports readback), downloading the new
// configuration, and installing it with the incoming owner's snapshot (or
// its declared initial values when it has none) — and returns the
// simulated time the switch cost.
//
// A snapshot belongs to its owner, not to its circuit: the kernel passes
// the task index, so two tasks running one circuit never resume each
// other's registers; a standalone user passes the config id. An owner's
// next activation consumes its snapshot, so a snapshot outlives no cut
// execution.
//
// On a partial-reconfiguration port the download writes only the frames
// that differ between the current configuration RAM and the target image;
// on a serial-full-only port every switch is a full-device download (the
// XC4000 regime the paper describes). A switch between two owners of the
// resident circuit downloads nothing and moves only their registers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

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
    bool resumeCorrupt = false;  ///< snapshot failed its CRC: the circuit
                                 ///< restarted from its initial values
  };

  struct Stats {
    std::uint64_t switches = 0;
    std::uint64_t downloads = 0;
    std::uint64_t downloadRetries = 0;
    std::uint64_t downloadAborts = 0;
    std::uint64_t verifyFailures = 0;
    std::uint64_t stateCrcFailures = 0;
  };

  /// Identifies whose registers a snapshot holds.
  using Owner = std::size_t;

  /// Makes `id` resident for `owner`. `saveOutgoing = false` implements
  /// the paper's roll-back alternative: the preempted owner's intermediate
  /// results are abandoned and it will restart from its initial state.
  SwitchCost activate(ConfigId id, Owner owner, bool saveOutgoing = true);

  /// Gives `owner` a snapshot of `id`'s registers taken elsewhere (a
  /// checkpoint's), which its next activation of `id` resumes.
  void adoptState(Owner owner, ConfigId id, std::vector<bool> bits);

  ConfigId current() const { return current_; }

  /// Forgets whose registers the resident circuit holds (a hung
  /// execution's garbage): its next activation, by any owner, installs the
  /// circuit's initial values and saves nothing.
  void dropOwner() { owner_ = kNoOwner; }

  /// A parked register snapshot and the circuit it was read from.
  struct Snapshot {
    ConfigId config = kNoConfig;
    SealedState state;
  };
  const std::unordered_map<Owner, Snapshot>& snapshots() const {
    return saved_;
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
  static constexpr Owner kNoOwner = ~Owner{0};

  ConfigId current_ = kNoConfig;
  Owner owner_ = kNoOwner;  ///< whose registers the resident circuit holds
  std::unordered_map<Owner, Snapshot> saved_;
  Stats stats_;
  fault::RecoveryOptions recovery_;
  fault::FaultPlan* plan_ = nullptr;
};

}  // namespace vfpga
