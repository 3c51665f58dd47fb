#include "netlist/evaluator.hpp"

#include <cassert>
#include <stdexcept>

namespace vfpga {

Evaluator::Evaluator(const Netlist& nl)
    : nl_(&nl), topo_(nl.topoOrder()), values_(nl.size(), 0),
      ffState_(nl.dffs().size(), 0) {
  reset();
}

void Evaluator::setInput(GateId input, bool value) {
  assert(nl_->gate(input).kind == GateKind::kInput);
  values_.at(input) = value ? 1 : 0;
}

void Evaluator::setInput(std::string_view name, bool value) {
  const GateId id = nl_->findInput(name);
  if (id == kNoGate) {
    throw std::out_of_range("no such input: " + std::string(name));
  }
  setInput(id, value);
}

void Evaluator::setInputs(const std::vector<bool>& values) {
  if (values.size() != nl_->inputs().size()) {
    throw std::invalid_argument("input vector size mismatch");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    values_[nl_->inputs()[i]] = values[i] ? 1 : 0;
  }
}

void Evaluator::eval() {
  // Expose FF state first (DFF gates read their stored value, not D).
  for (std::size_t i = 0; i < nl_->dffs().size(); ++i) {
    values_[nl_->dffs()[i]] = ffState_[i];
  }
  for (GateId id : topo_) {
    const Gate& g = nl_->gate(id);
    const auto& f = g.fanins;
    char v = 0;
    switch (g.kind) {
      case GateKind::kInput:
      case GateKind::kDff:
        continue;  // already set
      case GateKind::kConst0: v = 0; break;
      case GateKind::kConst1: v = 1; break;
      case GateKind::kBuf:
      case GateKind::kOutput: v = values_[f[0]]; break;
      case GateKind::kNot: v = !values_[f[0]]; break;
      case GateKind::kAnd: v = values_[f[0]] & values_[f[1]]; break;
      case GateKind::kOr: v = values_[f[0]] | values_[f[1]]; break;
      case GateKind::kXor: v = values_[f[0]] ^ values_[f[1]]; break;
      case GateKind::kNand: v = !(values_[f[0]] & values_[f[1]]); break;
      case GateKind::kNor: v = !(values_[f[0]] | values_[f[1]]); break;
      case GateKind::kXnor: v = !(values_[f[0]] ^ values_[f[1]]); break;
      case GateKind::kMux: v = values_[f[0]] ? values_[f[2]] : values_[f[1]]; break;
    }
    values_[id] = v;
  }
}

void Evaluator::tick() {
  for (std::size_t i = 0; i < nl_->dffs().size(); ++i) {
    ffState_[i] = values_[nl_->gate(nl_->dffs()[i]).fanins[0]];
  }
}

bool Evaluator::output(std::string_view name) const {
  const GateId id = nl_->findOutput(name);
  if (id == kNoGate) {
    throw std::out_of_range("no such output: " + std::string(name));
  }
  return values_.at(id) != 0;
}

std::vector<bool> Evaluator::state() const {
  return {ffState_.begin(), ffState_.end()};
}

void Evaluator::setState(const std::vector<bool>& bits) {
  if (bits.size() != ffState_.size()) {
    throw std::invalid_argument("state vector size mismatch");
  }
  for (std::size_t i = 0; i < bits.size(); ++i) ffState_[i] = bits[i] ? 1 : 0;
}

void Evaluator::reset() {
  for (std::size_t i = 0; i < nl_->dffs().size(); ++i) {
    ffState_[i] = nl_->gate(nl_->dffs()[i]).dffInit ? 1 : 0;
  }
}

std::uint64_t Evaluator::readBus(std::span<const GateId> bus) const {
  assert(bus.size() <= 64);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    if (values_.at(bus[i])) v |= (1ULL << i);
  }
  return v;
}

void Evaluator::writeBus(std::span<const GateId> bus, std::uint64_t value) {
  assert(bus.size() <= 64);
  for (std::size_t i = 0; i < bus.size(); ++i) {
    setInput(bus[i], ((value >> i) & 1) != 0);
  }
}

}  // namespace vfpga
