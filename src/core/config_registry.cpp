#include "core/config_registry.hpp"

#include <stdexcept>

#include "analysis/equiv/verify.hpp"

namespace vfpga {

namespace {

/// The clock period of the real routed design is a function of its partial
/// bitstream alone: decode it on a blank image and read the timing analyzer.
SimDuration decodeClockPeriod(const CompiledCircuit& c, const Device& dev) {
  ConfigImage image(dev.configMap().totalBits());
  applyBitstream(image, c.partialBitstream());
  const Elaboration elab = elaborate(dev.rrg(), dev.configMap(), image);
  if (!elab.ok()) {
    throw std::logic_error("registered circuit does not decode: " +
                           elab.faults.front());
  }
  return criticalPathDelay(elab, dev.timing()) + dev.timing().clockMargin;
}

}  // namespace

StoredCircuit::StoredCircuit(CompiledCircuit circuit, const Device& dev)
    : circuit_(std::move(circuit)),
      clockPeriod_(decodeClockPeriod(circuit_, dev)) {}

const CompiledCircuit& StoredCircuit::placed(std::uint16_t x0,
                                             Compiler& compiler) const {
  if (auto it = placed_.find(x0); it != placed_.end()) return it->second;
  return placed_
      .emplace(x0, analysis::equiv::relocateProven(compiler, circuit_, x0))
      .first->second;
}

std::shared_ptr<const StoredCircuit> CircuitStore::getOrCompile(
    std::uint64_t key, const Device& dev, const CompileFn& compile) {
  if (auto it = entries_.find(key); it != entries_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.compiles;
  auto entry = std::make_shared<const StoredCircuit>(compile(), dev);
  entries_.emplace(key, entry);
  return entry;
}

ConfigId ConfigRegistry::add(std::shared_ptr<const StoredCircuit> entry) {
  const std::string& name = entry->circuit().name;
  if (byName(name) != kNoConfig) {
    throw std::logic_error("configuration already registered: " + name);
  }
  entries_.push_back(std::move(entry));
  return static_cast<ConfigId>(entries_.size() - 1);
}

ConfigId ConfigRegistry::add(CompiledCircuit circuit) {
  return add(std::make_shared<const StoredCircuit>(std::move(circuit), *dev_));
}

ConfigId ConfigRegistry::byName(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i]->circuit().name == name) return static_cast<ConfigId>(i);
  }
  return kNoConfig;
}

}  // namespace vfpga
