// Configuration registry: the OS table where tasks declare the FPGA
// configurations they will use, "at the beginning of the task life, when
// the task itself is loaded into the system" (§3) — the paper's analogue of
// registering a device configuration through fopen.
// Each row is a shared StoredCircuit: what registering a circuit derives
// and never changes, including its relocated copies (§4), each made once
// per column. A CircuitStore keyed by content hands one entry to every
// kernel that registers the same circuit on the same fabric.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "compile/compiler.hpp"

namespace vfpga {

using ConfigId = std::uint32_t;
constexpr ConfigId kNoConfig = 0xffffffffu;

class StoredCircuit {
 public:
  /// Decodes `circuit`'s partial bitstream on a blank image of `dev`'s
  /// fabric and reads its clock period from the timing analyzer; nothing is
  /// written to `dev`. Throws std::logic_error when the image does not
  /// decode.
  StoredCircuit(CompiledCircuit circuit, const Device& dev);

  const CompiledCircuit& circuit() const { return circuit_; }
  /// Critical path of the routed design plus the fabric's clock margin.
  SimDuration clockPeriod() const { return clockPeriod_; }

  /// The circuit relocated to column `x0` (relocateProven), made once per
  /// column and valid for the entry's life; a failed proof caches nothing.
  /// `compiler` targets the fabric the entry was decoded on. Kernels that
  /// share the entry share this memo: call it from the simulation thread.
  const CompiledCircuit& placed(std::uint16_t x0, Compiler& compiler) const;

 private:
  CompiledCircuit circuit_;
  SimDuration clockPeriod_;
  /// Map nodes keep placed() references stable as columns are added.
  mutable std::map<std::uint16_t, CompiledCircuit> placed_;
};

struct CircuitStoreStats {
  std::uint64_t compiles = 0;  ///< entries made, one per distinct key
  std::uint64_t hits = 0;      ///< requests an existing entry served
};

/// Caller-owned store of entries keyed by content. No bound and no
/// eviction: an entry lives as long as the store or a registry holding it.
class CircuitStore {
 public:
  using CompileFn = std::function<CompiledCircuit()>;

  /// The entry under `key`. On a miss, runs `compile` and decodes its result
  /// on `dev`. The key covers everything an entry depends on: the compile's
  /// inputs, and the fabric's geometry, frame size and timing.
  std::shared_ptr<const StoredCircuit> getOrCompile(std::uint64_t key,
                                                    const Device& dev,
                                                    const CompileFn& compile);

  const CircuitStoreStats& stats() const { return stats_; }
  double hitRate() const {
    const std::uint64_t total = stats_.hits + stats_.compiles;
    return total == 0 ? 0.0 : static_cast<double>(stats_.hits) / total;
  }

 private:
  std::unordered_map<std::uint64_t, std::shared_ptr<const StoredCircuit>>
      entries_;
  CircuitStoreStats stats_;
};

class ConfigRegistry {
 public:
  /// `dev` is the fabric a circuit registered by value is decoded on.
  explicit ConfigRegistry(const Device& dev) : dev_(&dev) {}

  /// Registers an entry; the returned id is what tasks name in their
  /// FpgaExec ops. Duplicate names are rejected (one table entry per
  /// declared configuration).
  ConfigId add(std::shared_ptr<const StoredCircuit> entry);
  /// Registers a private entry, decoded on the registry's device.
  ConfigId add(CompiledCircuit circuit);

  std::size_t size() const { return entries_.size(); }
  const StoredCircuit& entry(ConfigId id) const { return *entries_.at(id); }
  const CompiledCircuit& circuit(ConfigId id) const {
    return entry(id).circuit();
  }
  ConfigId byName(const std::string& name) const;  ///< kNoConfig if absent

  /// `id` relocated to column `x0`: the entry's copy (StoredCircuit::placed).
  const CompiledCircuit& placed(ConfigId id, std::uint16_t x0,
                                Compiler& compiler) const {
    return entry(id).placed(x0, compiler);
  }

 private:
  const Device* dev_;
  std::vector<std::shared_ptr<const StoredCircuit>> entries_;
};

}  // namespace vfpga
