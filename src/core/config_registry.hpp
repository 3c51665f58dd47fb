// Configuration registry: the OS table where tasks declare the FPGA
// configurations they will use, "at the beginning of the task life, when
// the task itself is loaded into the system" (§3) — the paper's analogue of
// registering a device configuration through fopen.
// It also owns the relocated copies (§4), each made once per column.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compile/compiler.hpp"

namespace vfpga {

using ConfigId = std::uint32_t;
constexpr ConfigId kNoConfig = 0xffffffffu;

/// A registered circuit relocated to one column; like every compiled
/// circuit, its configuration is its sealed partial bitstream.
struct Placed {
  ConfigId config = kNoConfig;
  CompiledCircuit circuit;
};

class ConfigRegistry {
 public:
  /// Registers a compiled circuit; the returned id is what tasks name in
  /// their FpgaExec ops. Duplicate names are rejected (one table entry per
  /// declared configuration).
  ConfigId add(CompiledCircuit circuit);

  std::size_t size() const { return entries_.size(); }
  const CompiledCircuit& circuit(ConfigId id) const;
  ConfigId byName(const std::string& name) const;  ///< kNoConfig if absent

  /// `id` relocated to column `x0` (relocateProven) and sealed, once per
  /// (id, x0); valid for the registry's life. A failed proof caches nothing.
  const Placed& placed(ConfigId id, std::uint16_t x0, Compiler& compiler);

 private:
  // unique_ptr and map nodes keep circuit() and placed() references
  // stable across registry growth. One placed entry per (config, column).
  std::vector<std::unique_ptr<CompiledCircuit>> entries_;
  std::map<std::pair<ConfigId, std::uint16_t>, Placed> placed_;
};

}  // namespace vfpga
