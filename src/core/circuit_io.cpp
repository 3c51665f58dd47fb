#include "core/circuit_io.hpp"

#include "compile/loaded_circuit.hpp"

namespace vfpga {

void SealedState::seal(fault::FaultPlan* plan) {
  crc = fault::stateCrc(bits);
  if (plan != nullptr) plan->corruptState(bits);
}

bool SealedState::intact() const { return fault::stateCrc(bits) == crc; }

SimDuration saveRegisters(Device& dev, ConfigPort& port,
                          const CompiledCircuit& c, std::vector<bool>& out) {
  out = LoadedCircuit(dev, c).saveState();
  return port.chargeStateRead(out.size());
}

SimDuration saveSealed(Device& dev, ConfigPort& port,
                       const CompiledCircuit& c, SealedState& out,
                       fault::FaultPlan* plan) {
  out.bits.clear();
  if (c.ffCount() == 0 || !port.spec().stateAccess) return 0;
  const SimDuration t = saveRegisters(dev, port, c, out.bits);
  out.seal(plan);
  return t;
}

Installed installCircuit(Device& dev, ConfigPort& port,
                         const CompiledCircuit& c, const Bitstream& bs,
                         const fault::RecoveryOptions& recovery,
                         const SealedState* resume) {
  Installed out;
  if (!bs.frames.empty()) {
    out.download = fault::downloadWithRetry(port, bs, recovery);
  }
  if (!out.ok() || c.ffCount() == 0) return out;
  if (resume != nullptr && !resume->bits.empty()) {
    if (resume->intact()) {
      LoadedCircuit(dev, c).restoreState(resume->bits);
      out.stateTime = port.chargeStateWrite(resume->bits.size());
      out.resumed = true;
      return out;
    }
    out.resumeCorrupt = true;
  }
  LoadedCircuit(dev, c).applyInitialState();
  // All-zero initial values come free only with a written configuration.
  const bool free = !c.needsInitialState() && !bs.frames.empty();
  if (!free && port.spec().stateAccess) {
    out.stateTime = port.chargeStateWrite(c.ffCount());
  }
  return out;
}

}  // namespace vfpga
