#include "compile/loaded_circuit.hpp"

#include <stdexcept>

#include "netlist/builder.hpp"

namespace vfpga {

void LoadedCircuit::setInput(std::string_view port, bool v) {
  dev_->setPadSlotInput(c_->padSlotOf(std::string(port)), v);
}

void LoadedCircuit::setInputBus(const std::string& base, std::size_t width,
                                std::uint64_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    setInput(busBitName(base, i, width), ((value >> i) & 1) != 0);
  }
}

bool LoadedCircuit::output(std::string_view port) {
  return dev_->padSlotOutput(c_->padSlotOf(std::string(port)));
}

std::uint64_t LoadedCircuit::outputBus(const std::string& base,
                                       std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    if (output(busBitName(base, i, width))) v |= std::uint64_t{1} << i;
  }
  return v;
}

std::vector<bool> LoadedCircuit::saveState() {
  std::vector<bool> mapped(c_->ffSites.size());
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    mapped[i] = dev_->ffStateAt(c_->ffSites[i].x, c_->ffSites[i].y);
  }
  return mapped;
}

void LoadedCircuit::restoreState(const std::vector<bool>& mappedOrderState) {
  if (mappedOrderState.size() != c_->ffSites.size()) {
    throw std::invalid_argument("state size mismatch");
  }
  for (std::size_t i = 0; i < mappedOrderState.size(); ++i) {
    dev_->setFfStateAt(c_->ffSites[i].x, c_->ffSites[i].y,
                       mappedOrderState[i]);
  }
}

void LoadedCircuit::applyInitialState() { restoreState(c_->initialState); }

}  // namespace vfpga
