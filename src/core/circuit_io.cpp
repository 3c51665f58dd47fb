#include "core/circuit_io.hpp"

#include "compile/loaded_circuit.hpp"

namespace vfpga {

void SealedState::seal(fault::FaultPlan* plan) {
  crc = fault::stateCrc(bits);
  if (plan != nullptr) plan->corruptState(bits);
}

bool SealedState::intact() const { return fault::stateCrc(bits) == crc; }

Installed installCircuit(Device& dev, ConfigPort& port,
                         const CompiledCircuit& c, const Bitstream& bs,
                         const fault::RecoveryOptions& recovery,
                         const SealedState* resume) {
  Installed out;
  if (!bs.frames.empty()) {
    out.download = fault::downloadWithRetry(port, bs, recovery);
  }
  if (!out.ok() || c.ffCount() == 0) return out;
  if (resume != nullptr && !resume->intact()) {
    out.resumeCorrupt = true;
  } else if (resume != nullptr) {
    out.stateTime = restoreRegisters(dev, port, c, resume->bits);
    out.resumed = true;
    return out;
  }
  LoadedCircuit(dev, c).applyInitialState();
  if (c.needsInitialState() && port.spec().stateAccess) {
    out.stateTime = port.chargeStateWrite(c.ffCount());
  }
  return out;
}

SimDuration saveRegisters(Device& dev, ConfigPort& port,
                          const CompiledCircuit& c, std::vector<bool>& out) {
  out = LoadedCircuit(dev, c).saveState();
  return port.chargeStateRead(out.size());
}

SimDuration restoreRegisters(Device& dev, ConfigPort& port,
                             const CompiledCircuit& c,
                             const std::vector<bool>& bits) {
  LoadedCircuit(dev, c).restoreState(bits);
  return port.chargeStateWrite(bits.size());
}

}  // namespace vfpga
