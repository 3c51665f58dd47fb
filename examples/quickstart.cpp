// Quickstart: compile a circuit for a simulated FPGA, download it, compute
// with it — then share the device between two circuits with the dynamic
// loader, preserving register state across reconfigurations exactly as the
// paper's §3 prescribes.
//
// Build & run:   ./examples/quickstart
#include <cstdio>

#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "core/config_registry.hpp"
#include "core/dynamic_loader.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/arith.hpp"
#include "netlist/library/control.hpp"

using namespace vfpga;

int main() {
  // 1. A physical device: 12x12 CLBs, 4-LUTs, partial reconfiguration.
  DeviceProfile profile = mediumPartialProfile();
  Device device = profile.makeDevice();
  ConfigPort port(device, profile.port);
  Compiler compiler(device);
  std::printf("device: %s, %ux%u CLBs, %u config bits, full download %.2f ms\n",
              profile.name.c_str(), device.geometry().cols,
              device.geometry().rows, device.configMap().totalBits(),
              toMilliseconds(port.fullDownloadCost()));

  // 2. Compile a 4-bit adder into a 5-column strip and download it.
  Netlist adderNl = lib::makeRippleAdder(4);
  CompiledCircuit adder =
      compiler.compile(adderNl, Region::columns(device.geometry(), 0, 5));
  std::printf("adder: %zu LUT cells, %zu ports, %zu config frames\n",
              adder.cellCount(), adder.portCount(),
              adder.partialBitstream().frameCount());

  ConfigRegistry registry(device);
  DynamicLoader loader(device, port, registry);
  const ConfigId adderId = registry.add(adder);

  auto cost = loader.activate(adderId, adderId);
  std::printf("download took %.3f ms (simulated)\n",
              toMilliseconds(cost.total));

  LoadedCircuit lc = loader.loaded();
  lc.setInputBus("a", 4, 9);
  lc.setInputBus("b", 4, 5);
  lc.setInput("cin", false);
  lc.evaluate();
  std::printf("9 + 5 = %llu (carry %d)\n",
              static_cast<unsigned long long>(lc.outputBus("sum", 4)),
              lc.output("cout") ? 1 : 0);

  // 3. Register a second circuit — a counter — and context-switch to it.
  Netlist ctrNl = lib::makeCounter(6);
  const ConfigId ctrId = registry.add(
      compiler.compile(ctrNl, Region::columns(device.geometry(), 0, 5)));
  loader.activate(ctrId, ctrId);
  LoadedCircuit ctr = loader.loaded();
  ctr.setInput("en", true);
  ctr.setInput("clr", false);
  for (int i = 0; i < 42; ++i) {
    ctr.evaluate();
    ctr.tick();
  }
  ctr.evaluate();
  std::printf("counter ran 42 cycles -> q = %llu\n",
              static_cast<unsigned long long>(ctr.outputBus("q", 6)));

  // 4. Preempt the counter (switch back to the adder), then resume it: the
  //    OS saved and restored its registers through the configuration port.
  auto back = loader.activate(adderId, adderId);
  std::printf("switch to adder: save %.1f us + download %.3f ms\n",
              toMicroseconds(back.saveTime), toMilliseconds(back.downloadTime));
  loader.activate(ctrId, ctrId);
  LoadedCircuit resumed = loader.loaded();
  resumed.setInput("en", true);
  resumed.setInput("clr", false);
  resumed.evaluate();
  std::printf("counter resumed at q = %llu (state preserved: %s)\n",
              static_cast<unsigned long long>(resumed.outputBus("q", 6)),
              resumed.outputBus("q", 6) == 42 ? "yes" : "NO");
  return resumed.outputBus("q", 6) == 42 ? 0 : 1;
}
