// Functional (cycle-level) evaluation of a Netlist.
//
// This is the *reference* semantics: the fabric device simulator must agree
// with it bit-for-bit after a circuit is compiled and downloaded, which is
// what the end-to-end correctness tests check.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"

namespace vfpga {

class Evaluator {
 public:
  explicit Evaluator(const Netlist& nl);

  /// Sets one primary input by gate id.
  void setInput(GateId input, bool value);
  /// Sets one primary input by name (must exist).
  void setInput(std::string_view name, bool value);
  /// Sets all primary inputs in declaration order.
  void setInputs(const std::vector<bool>& values);

  /// Propagates combinational logic from inputs and FF state to outputs.
  void eval();

  /// Clock edge: every DFF latches its D value (eval() must be current).
  void tick();

  bool value(GateId id) const { return values_.at(id); }
  bool output(std::string_view name) const;

  /// FF state access in dff-declaration order (used by the scan-chain and
  /// state save/restore tests).
  std::vector<bool> state() const;
  void setState(const std::vector<bool>& bits);
  /// One FF by dff ordinal, without copying the whole state.
  bool stateBit(std::size_t ff) const { return ffState_[ff] != 0; }
  void setStateBit(std::size_t ff, bool v) { ffState_[ff] = v ? 1 : 0; }

  /// Resets all DFFs to their declared init values.
  void reset();

  // ---- multi-bit helpers (little-endian: bit 0 = element 0) --------------
  /// Reads a bus of output/any gates as an unsigned integer.
  std::uint64_t readBus(std::span<const GateId> bus) const;
  /// Drives a bus of input gates from an unsigned integer.
  void writeBus(std::span<const GateId> bus, std::uint64_t value);

 private:
  const Netlist* nl_;
  std::vector<GateId> topo_;
  std::vector<char> values_;  // char to avoid vector<bool> aliasing pains
  std::vector<char> ffState_;  // indexed like nl_->dffs()
};

}  // namespace vfpga
