#include "sim/compiled/batch.hpp"

#include <stdexcept>

namespace vfpga::compiled {

namespace {

/// Shannon-merges the truth table across 64 lanes. `k` <= kMaxLutInputs.
std::uint64_t lutEvalWide(const FabricProgram::Op& op,
                          const std::uint64_t* tape, unsigned k) {
  std::uint64_t slice[std::size_t{1} << kMaxLutInputs];
  unsigned n = 1u << k;
  for (unsigned j = 0; j < n; ++j) {
    slice[j] = (op.table >> j) & 1 ? ~0ull : 0ull;
  }
  for (unsigned p = 0; p < k; ++p) {
    const std::uint64_t sel = tape[op.in[p]];
    n >>= 1;
    for (unsigned j = 0; j < n; ++j) {
      slice[j] = (slice[2 * j] & ~sel) | (slice[2 * j + 1] & sel);
    }
  }
  return slice[0];
}

}  // namespace

BatchEvaluator::BatchEvaluator(std::shared_ptr<const FabricProgram> program)
    : p_(std::move(program)) {
  if (p_ == nullptr) throw std::invalid_argument("BatchEvaluator: no program");
  tape_.assign(p_->tapeSize, 0);
  const std::size_t pads = p_->cellBase - p_->padBase;
  padIn_.assign(pads, 0);
  padOut_.assign(pads, 0);
  ffState_.assign(p_->ffs.size(), 0);
  ffNext_.assign(p_->ffs.size(), 0);
}

void BatchEvaluator::setPadInput(std::uint32_t slot, std::uint64_t lanes) {
  padIn_.at(slot) = lanes;
}

std::uint64_t BatchEvaluator::padOutput(std::uint32_t slot) const {
  return padOut_.at(slot);
}

std::uint64_t BatchEvaluator::ffWord(std::uint32_t ffIndex) const {
  return ffState_.at(ffIndex);
}

void BatchEvaluator::resetFfs() {
  ffState_.assign(ffState_.size(), 0);
}

void BatchEvaluator::evaluate() {
  const FabricProgram& p = *p_;
  std::uint64_t* tape = tape_.data();
  tape[0] = 0;  // undriven sources read 0 in every lane
  for (std::uint32_t s : p.inputSlots) {
    tape[p.padBase + s] = padIn_[s];
  }
  for (const FabricProgram::FfBind& fb : p.ffs) {
    tape[p.cellBase + fb.cell] = ffState_[fb.ffIndex];
  }
  const unsigned k = p.lutInputs;
  for (const FabricProgram::Op& op : p.comb) {
    tape[op.out] = lutEvalWide(op, tape, k);
  }
  for (const FabricProgram::Op& op : p.ffNext) {
    ffNext_[op.out] = lutEvalWide(op, tape, k);
  }
  for (const FabricProgram::PadBind& pb : p.padOuts) {
    padOut_[pb.slot] = tape[pb.src];
  }
}

void BatchEvaluator::tick() {
  ffState_ = ffNext_;
  ++cycles_;
}

}  // namespace vfpga::compiled
