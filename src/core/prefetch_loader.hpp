// Configuration prefetching: an extension of §3's implicit loading ("the
// FPGA configuration [is loaded] ... implicitly when the task is started
// or reactivated by the operating system").
//
// The device is split into two half-width strips used as a double buffer:
// while the active half computes, the loader speculatively downloads the
// *predicted* next configuration into the shadow half (a first-order
// Markov predictor over the activation history). A correct prediction
// turns the next context switch into a pointer flip — the task stalls only
// for whatever remains of the in-flight background download; a wrong one
// falls back to a demand load. This is the configuration analogue of
// demand prefetching in virtual memory, and the double-buffer trick later
// became standard practice in reconfigurable computing. Each circuit's copy
// for either half is the registry's (ConfigRegistry::placed), relocated once.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "core/config_registry.hpp"
#include "fabric/config_port.hpp"
#include "sim/types.hpp"

namespace vfpga {

class PrefetchLoader {
 public:
  /// Registered circuits must be relocatable and at most half the device
  /// wide (they live alternately in either half).
  PrefetchLoader(Device& device, ConfigPort& port, ConfigRegistry& registry,
                 Compiler& compiler);

  struct SwitchResult {
    SimDuration stall = 0;  ///< time the requesting task waits
    bool predicted = false; ///< the shadow half already held (or was
                            ///< loading) the requested configuration
  };

  /// Makes `id` active at simulated time `now` (monotonically increasing
  /// across calls). Returns the stall and updates the predictor; kicks off
  /// the next speculative download in the background.
  SwitchResult activate(ConfigId id, SimTime now);

  ConfigId active() const { return active_; }
  /// Harness for the active circuit.
  LoadedCircuit loaded();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  SimDuration stallTotal() const { return stallTotal_; }
  double hitRate() const {
    const auto n = hits_ + misses_;
    return n ? static_cast<double>(hits_) / static_cast<double>(n) : 0.0;
  }

 private:
  Device* dev_;
  ConfigPort* port_;
  ConfigRegistry* registry_;
  Compiler* compiler_;
  std::uint16_t halfWidth_;

  // Which half is active (0 => columns [0, half), 1 => [half, 2*half)).
  int activeHalf_ = 0;
  ConfigId active_ = kNoConfig;
  ConfigId shadow_ = kNoConfig;   ///< config resident/loading in the shadow
  SimTime shadowReady_ = 0;       ///< when the shadow download completes
  SimTime lastNow_ = 0;

  // First-order Markov transition counts.
  std::map<ConfigId, std::map<ConfigId, std::uint64_t>> transitions_;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  SimDuration stallTotal_ = 0;

  const CompiledCircuit& placedIn(ConfigId id, int half);
  SimDuration loadInto(ConfigId id, int half);
  std::optional<ConfigId> predictAfter(ConfigId id) const;
  void startPrefetch(SimTime from);
};

}  // namespace vfpga
