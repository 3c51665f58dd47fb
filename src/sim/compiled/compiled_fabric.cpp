#include "sim/compiled/compiled_fabric.hpp"

#include "fabric/device.hpp"

namespace vfpga::compiled {

CompiledFabric::CompiledFabric(Device& dev, CompiledKernelCache* cache)
    : dev_(&dev), cache_(cache) {
  dev_->attachFastPath(this);
}

CompiledFabric::~CompiledFabric() {
  if (dev_->fastPath() == this) dev_->attachFastPath(nullptr);
}

bool CompiledFabric::ensureProgram() {
  const std::uint64_t devGen = dev_->configGeneration();
  if (gen_ == devGen) return usable_;
  if (gen_ != kNoGeneration) ++stats_.invalidations;
  program_.reset();
  usable_ = false;
  gen_ = devGen;
  // Rebuild the elaboration (and the device's value arrays) *before*
  // digesting, so the program and the arrays belong to the same image.
  (void)dev_->elaboration();
  const std::uint64_t key = configDigest(*dev_);
  std::shared_ptr<const FabricProgram> p =
      cache_ != nullptr ? cache_->lookup(key) : nullptr;
  if (p != nullptr) {
    ++stats_.hits;
  } else {
    p = levelizeDevice(*dev_);
    if (p != nullptr) {
      ++stats_.builds;
      if (cache_ != nullptr) cache_->insert(key, p);
    }
  }
  lastBuildFaulted_ = p == nullptr;
  if (p == nullptr) return false;
  program_ = std::move(p);
  tape_.assign(program_->tapeSize, 0);
  usable_ = true;
  return true;
}

bool CompiledFabric::evaluate() {
  if (!ensureProgram()) return false;
  const FabricProgram& p = *program_;
  std::uint8_t* tape = tape_.data();
  const std::uint8_t* padIn = dev_->padInput_.data();
  const std::uint8_t* ffSite = dev_->ffSite_.data();
  std::uint8_t* cellValue = dev_->cellValue_.data();
  std::uint8_t* cellLutOut = dev_->cellLutOut_.data();
  std::uint8_t* padOut = dev_->padOutput_.data();

  // Sync-in: pad inputs and registered outputs enter the tape; FF cell
  // values are read from the device's per-site register store and mirror
  // into cellValue_ exactly as the interpreter publishes them. State is
  // read fresh every settle, so external FF writes (restoreState,
  // migration resume, setFfStateAt, none of which elaborate) take effect
  // at once.
  for (std::uint32_t s : p.inputSlots) {
    tape[p.padBase + s] = padIn[s] & 1;
  }
  for (const FabricProgram::FfBind& fb : p.ffs) {
    const std::uint8_t v = ffSite[fb.site] & 1;
    tape[p.cellBase + fb.cell] = v;
    cellValue[fb.cell] = v;
  }

  if (p.lutInputs == 4) {  // the symmetrical-array K of every profile
    for (const FabricProgram::Op& op : p.comb) {
      const unsigned idx =
          (tape[op.in[0]] & 1u) | (tape[op.in[1]] & 1u) << 1 |
          (tape[op.in[2]] & 1u) << 2 | (tape[op.in[3]] & 1u) << 3;
      const std::uint8_t v = static_cast<std::uint8_t>((op.table >> idx) & 1);
      tape[op.out] = v;
      cellValue[op.cell] = v;
    }
    for (const FabricProgram::Op& op : p.ffNext) {
      const unsigned idx =
          (tape[op.in[0]] & 1u) | (tape[op.in[1]] & 1u) << 1 |
          (tape[op.in[2]] & 1u) << 2 | (tape[op.in[3]] & 1u) << 3;
      cellLutOut[op.cell] = static_cast<std::uint8_t>((op.table >> idx) & 1);
    }
  } else {
    const unsigned k = p.lutInputs;
    auto gather = [&](const FabricProgram::Op& op) {
      unsigned idx = 0;
      for (unsigned i = 0; i < k; ++i) idx |= (tape[op.in[i]] & 1u) << i;
      return static_cast<std::uint8_t>((op.table >> idx) & 1);
    };
    for (const FabricProgram::Op& op : p.comb) {
      const std::uint8_t v = gather(op);
      tape[op.out] = v;
      cellValue[op.cell] = v;
    }
    for (const FabricProgram::Op& op : p.ffNext) {
      cellLutOut[op.cell] = gather(op);
    }
  }

  for (const FabricProgram::PadBind& pb : p.padOuts) {
    padOut[pb.slot] = tape[pb.src] & 1;
  }
  ++stats_.compiledEvaluates;
  lastServedCompiled_ = true;
  return true;
}

bool CompiledFabric::tick() {
  if (!ensureProgram()) return false;
  const std::uint8_t* lutOut = dev_->cellLutOut_.data();
  std::uint8_t* ffSite = dev_->ffSite_.data();
  for (const FabricProgram::FfBind& fb : program_->ffs) {
    ffSite[fb.site] = lutOut[fb.cell];
  }
  ++dev_->cycles_;
  ++stats_.compiledTicks;
  lastServedCompiled_ = true;
  return true;
}

}  // namespace vfpga::compiled
