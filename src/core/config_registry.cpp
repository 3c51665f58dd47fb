#include "core/config_registry.hpp"

#include <stdexcept>

#include "analysis/equiv/verify.hpp"

namespace vfpga {

ConfigId ConfigRegistry::add(CompiledCircuit circuit) {
  if (byName(circuit.name) != kNoConfig) {
    throw std::logic_error("configuration already registered: " +
                           circuit.name);
  }
  entries_.push_back(std::make_unique<CompiledCircuit>(std::move(circuit)));
  return static_cast<ConfigId>(entries_.size() - 1);
}

const CompiledCircuit& ConfigRegistry::circuit(ConfigId id) const {
  return *entries_.at(id);
}

ConfigId ConfigRegistry::byName(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i]->name == name) return static_cast<ConfigId>(i);
  }
  return kNoConfig;
}

const Placed& ConfigRegistry::placed(ConfigId id, std::uint16_t x0,
                                     Compiler& compiler) {
  const auto key = std::make_pair(id, x0);
  if (auto it = placed_.find(key); it != placed_.end()) return it->second;
  Placed p{id, analysis::equiv::relocateProven(compiler, circuit(id), x0)};
  return placed_.emplace(key, std::move(p)).first->second;
}

}  // namespace vfpga
