// 64-wide bit-parallel batch evaluation of a FabricProgram.
//
// Every tape slot, FF and pad holds one uint64_t word = 64 independent
// evaluation lanes (lane i lives in bit i of every word). A K-input LUT is
// evaluated across all 64 lanes at once by iterative Shannon merging of
// its truth table: start from the 2^K constant words (all-ones where the
// table bit is 1), then per input fold pairs with
//   slice[j] = (slice[2j] & ~sel) | (slice[2j+1] & sel)
// — 2^K + 3*(2^K - 1) word ops per LUT, i.e. roughly one op per lane per
// LUT for K = 4. That is what makes parameter sweeps, corruption corpora
// and fuzz campaigns cheap: one batch pass replaces 64 device replays.
//
// A BatchEvaluator owns its packed state and never touches a Device, so
// any number of sessions can share one immutable program concurrently
// (each bench/test thread gets its own evaluator).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/compiled/program.hpp"

namespace vfpga::compiled {

class BatchEvaluator {
 public:
  static constexpr unsigned kLanes = 64;

  explicit BatchEvaluator(std::shared_ptr<const FabricProgram> program);

  const FabricProgram& program() const { return *p_; }

  /// Drives an input pad slot: bit i of `lanes` is lane i's value.
  void setPadInput(std::uint32_t slot, std::uint64_t lanes);
  /// Reads an output pad slot across all lanes (after evaluate()).
  std::uint64_t padOutput(std::uint32_t slot) const;

  std::uint64_t ffWord(std::uint32_t ffIndex) const;
  void resetFfs();

  /// Combinational settle of all 64 lanes.
  void evaluate();
  /// Clock edge of all 64 lanes (evaluate() must have run since changes).
  void tick();
  std::uint64_t cyclesTicked() const { return cycles_; }

 private:
  std::shared_ptr<const FabricProgram> p_;
  std::vector<std::uint64_t> tape_;
  std::vector<std::uint64_t> padIn_;
  std::vector<std::uint64_t> padOut_;
  std::vector<std::uint64_t> ffState_;
  std::vector<std::uint64_t> ffNext_;
  std::uint64_t cycles_ = 0;
};

}  // namespace vfpga::compiled
