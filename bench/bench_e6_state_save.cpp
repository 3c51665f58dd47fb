// E6 — Sequential-circuit preemption: state save/restore vs roll-back
// (paper §3).
//
// Claims reproduced:
//  * preempting a sequential circuit requires its state to be observable
//    and controllable; the save/restore cost grows with the number of
//    memory elements ("the state reading and loading operations should be
//    as simple and fast as possible");
//  * the alternative — roll-back — re-executes the whole computation,
//    which is cheaper only when little progress would be lost.
//
// Table 1: measured save+restore cost vs FF count (real circuits, real
//          readback through the configuration port).
// Table 2: end-to-end: time-shared executions under save/restore vs
//          roll-back, sweeping execution length.
#include "bench_util.hpp"
#include "core/dynamic_loader.hpp"
#include "core/os_kernel.hpp"
#include "netlist/library/control.hpp"

using namespace vfpga;
using namespace vfpga::bench;

int main() {
  DeviceProfile prof = mediumPartialProfile();
  BenchJson json("e6_state_save");

  tableHeader("E6", "state save/restore cost vs circuit FF count");
  std::printf("%-14s %6s %12s %12s %16s\n", "circuit", "FFs", "save_us",
              "restore_us", "switch_total_ms");
  for (std::size_t bits : {4, 8, 16, 32, 64}) {
    Device dev = prof.makeDevice();
    ConfigPort port(dev, prof.port);
    Compiler compiler(dev);
    ConfigRegistry registry(dev);
    DynamicLoader loader(dev, port, registry);

    Netlist sr = lib::makeShiftRegister(bits);
    sr.setName("shift" + std::to_string(bits));
    // Wider registers need wider strips.
    const std::uint16_t width =
        static_cast<std::uint16_t>(bits <= 16 ? 4 : (bits <= 32 ? 6 : 9));
    ConfigId a = registry.add(
        compiler.compile(sr, Region::columns(dev.geometry(), 0, width)));
    Netlist other = lib::makeParityTree(6);
    other.setName("bump");
    ConfigId b = registry.add(
        compiler.compile(other, Region::columns(dev.geometry(), 0, 3)));

    loader.activate(a, a);
    {
      LoadedCircuit lc = loader.loaded();
      lc.setInput("d", true);
      for (std::size_t i = 0; i < bits / 2; ++i) {
        lc.evaluate();
        lc.tick();
      }
    }
    const auto away = loader.activate(b, b);   // saves the register state
    const auto back = loader.activate(a, a);   // restores it
    std::printf("%-14s %6zu %12.2f %12.2f %16.3f\n",
                ("shift" + std::to_string(bits)).c_str(), bits,
                toMicroseconds(away.saveTime), toMicroseconds(back.restoreTime),
                toMilliseconds(away.total + back.total));
    const obs::Labels l{{"ffs", std::to_string(bits)}};
    json.sample("vfpga_bench_e6_save_us", l, toMicroseconds(away.saveTime));
    json.sample("vfpga_bench_e6_restore_us", l,
                toMicroseconds(back.restoreTime));
    json.sample("vfpga_bench_e6_switch_total_ms", l,
                toMilliseconds(away.total + back.total));
  }

  // One preemption, isolated: task A has run `progress` of its execution
  // when short task B preempts the device. Compare A's completion time and
  // B's response time under the three §3 regimes.
  tableHeader("E6", "one preemption at varying progress (A: 20 ms exec, "
                    "B: 1 ms exec)");
  std::printf("%-12s | %12s %12s | %12s %12s | %12s %12s\n", "progress_ms",
              "A_done_sr", "B_resp_sr", "A_done_rb", "B_resp_rb",
              "A_done_npre", "B_resp_npre");
  {
    DeviceProfile p = prof;
    Device dev = p.makeDevice();
    ConfigPort port(dev, p.port);
    Compiler compiler(dev);
    ConfigRegistry registry(dev);
    auto circuits = standardCircuits();
    CompiledCircuit ca = compiler.compile(
        circuits[0].netlist, Region::columns(dev.geometry(), 0, 4));
    CompiledCircuit cb = compiler.compile(
        circuits[1].netlist, Region::columns(dev.geometry(), 0, 4));
    const ConfigId a = registry.add(ca);
    const ConfigId b = registry.add(cb);
    DynamicLoader loader(dev, port, registry);
    // Measure the real switch costs once.
    loader.activate(a, a);
    const auto aToB = loader.activate(b, b);          // includes save of A
    const auto bToA = loader.activate(a, a);          // includes restore of A
    const SimDuration swAB = aToB.total;
    const SimDuration swBA = bToA.total;
    const SimDuration execA = millis(20);
    const SimDuration execB = millis(1);
    for (SimDuration progress : {millis(1), millis(5), millis(10), millis(19)}) {
      // save/restore: A runs progress, switch (saves A), B runs, switch
      // back (restores A), A finishes the remainder.
      const SimDuration aDoneSr = progress + swAB + execB + swBA +
                                  (execA - progress);
      const SimDuration bRespSr = progress + swAB + execB;
      // roll-back: same timeline but A restarts from zero.
      const SimDuration aDoneRb = progress + swAB + execB + swBA + execA;
      const SimDuration bRespRb = bRespSr;
      // non-preemptable: B waits for A to complete.
      const SimDuration aDoneNp = execA;
      const SimDuration bRespNp = execA + swAB + execB;
      std::printf("%-12.0f | %12.2f %12.2f | %12.2f %12.2f | %12.2f %12.2f\n",
                  toMilliseconds(progress), toMilliseconds(aDoneSr),
                  toMilliseconds(bRespSr), toMilliseconds(aDoneRb),
                  toMilliseconds(bRespRb), toMilliseconds(aDoneNp),
                  toMilliseconds(bRespNp));
    }
    std::printf("(measured switch costs: A->B %.3f ms incl. %.1f us save, "
                "B->A %.3f ms incl. %.1f us restore)\n",
                toMilliseconds(swAB), toMicroseconds(aToB.saveTime),
                toMilliseconds(swBA), toMicroseconds(bToA.restoreTime));
    json.sample("vfpga_bench_e6_preempt_switch_ms", {{"dir", "a_to_b"}},
                toMilliseconds(swAB));
    json.sample("vfpga_bench_e6_preempt_switch_ms", {{"dir", "b_to_a"}},
                toMilliseconds(swBA));
    json.sample("vfpga_bench_e6_preempt_save_us", {},
                toMicroseconds(aToB.saveTime));
    json.sample("vfpga_bench_e6_preempt_restore_us", {},
                toMicroseconds(bToA.restoreTime));
  }
  std::printf("\nreading: save/restore cost scales linearly with FF count "
              "and stays in microseconds, so A's completion is independent "
              "of when it is preempted; under roll-back the lost progress "
              "is re-executed (A_done_rb grows with progress); refusing "
              "preemption protects A but ruins B's response time — the "
              "three-way trade §3 lays out.\n");
  json.write();
  return 0;
}
