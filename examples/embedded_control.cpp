// Embedded-control scenario from §5: "execution of different non-frequent
// functions (e.g., periodic system testing and diagnosis as well as tuning
// of the operating parameters) can benefit from the performance achieved
// by FPGAs."
//
// A PI controller runs continuously in one PARTITION (§4) regulating a
// simple first-order plant, while a built-in self-test signature register
// (MISR) is loaded into a second partition only during periodic diagnosis
// windows and unloaded afterwards — the controller's integrator state is
// never disturbed.
#include <cstdio>
#include <cstdlib>

#include "compile/loaded_circuit.hpp"
#include "core/partition_manager.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "sim/rng.hpp"

using namespace vfpga;

int main() {
  DeviceProfile profile = mediumPartialProfile();
  Device device = profile.makeDevice();
  ConfigPort port(device, profile.port);
  Compiler compiler(device);
  ConfigRegistry registry(device);
  PartitionManager pm(device, port, registry, compiler, {});

  Netlist pi = lib::makePiController(8, 2, 4);
  pi.setName("pi_controller");
  Netlist misr = lib::makeMisr(8, 0x1D);
  misr.setName("bist_misr");
  const ConfigId piId = registry.add(
      compiler.compile(pi, Region::columns(device.geometry(), 0, 7)));
  const ConfigId misrId = registry.add(
      compiler.compile(misr, Region::columns(device.geometry(), 0, 5)));

  auto piLoad = pm.load(piId);
  if (!piLoad) {
    std::fprintf(stderr, "controller does not fit\n");
    return 1;
  }
  std::printf("PI controller loaded into strip [%u,%u) in %.3f ms\n",
              pm.circuitIn(piLoad->partition).region.x0,
              pm.circuitIn(piLoad->partition).region.x0 + 7,
              toMilliseconds(piLoad->cost));

  LoadedCircuit ctrl = pm.loaded(piLoad->partition);
  const std::uint64_t setpoint = 120;
  double plant = 20.0;  // measured process value
  SimDuration diagnosisTime = 0;
  Rng rng(5);
  std::uint64_t signature = 0;

  for (int step = 0; step < 400; ++step) {
    // Control step: e = sp - y, u = P + I; plant is a lag that follows u.
    ctrl.setInputBus("sp", 8, setpoint);
    ctrl.setInputBus("y", 8, static_cast<std::uint64_t>(plant) & 0xFF);
    device.evaluate();
    const std::uint64_t u = ctrl.outputBus("u", 8);
    device.tick();
    plant += (static_cast<double>(u) - plant) * 0.08;

    // Every 100 steps: diagnosis window — load the MISR beside the
    // controller, stream test vectors, record the signature, unload.
    if (step % 100 == 99) {
      auto bist = pm.load(misrId);
      if (!bist) {
        std::fprintf(stderr, "BIST does not fit next to controller\n");
        return 1;
      }
      diagnosisTime += bist->cost;
      LoadedCircuit sig = pm.loaded(bist->partition);
      Rng vectors(42);  // same vectors every window -> same signature
      for (int v = 0; v < 32; ++v) {
        sig.setInputBus("d", 8, vectors.next() & 0xFF);
        device.evaluate();
        device.tick();
      }
      device.evaluate();
      const std::uint64_t s = sig.outputBus("sig", 8);
      if (signature == 0) signature = s;
      std::printf("step %3d: plant=%6.1f  BIST signature 0x%02llx %s\n",
                  step, plant, static_cast<unsigned long long>(s),
                  s == signature ? "(healthy)" : "(FAULT!)");
      if (s != signature) return 1;
      pm.unload(bist->partition);
    }
  }

  std::printf("\nplant settled at %.1f (setpoint %llu)\n", plant,
              static_cast<unsigned long long>(setpoint));
  std::printf("diagnosis reconfiguration cost: %.3f ms over 4 windows\n",
              toMilliseconds(diagnosisTime));
  const bool settled = plant > 110 && plant < 130;
  std::printf("controller state survived all BIST windows: %s\n",
              settled ? "yes" : "NO");
  return settled ? 0 : 1;
}
