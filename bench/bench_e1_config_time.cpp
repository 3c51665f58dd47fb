// E1 — Configuration time (paper §2).
//
// Claims reproduced:
//  * a full serial download of an XC4000-class device takes on the order
//    of (and no more than) 200 ms, restricting programmability "to initial
//    configuration or occasional reconfiguration";
//  * frame-addressable partial reconfiguration makes frequent
//    reprogramming feasible because a circuit touches only its own frames.
//
// Table 1: full-configuration time per device profile.
// Table 2: per-circuit partial vs full download on the medium device.
// Table 3: reconfigurations per second sustainable at 10% overhead.
#include "bench_util.hpp"

using namespace vfpga;
using namespace vfpga::bench;

int main() {
  BenchJson json("e1_config_time");
  tableHeader("E1", "full serial configuration time per device profile");
  std::printf("%-16s %6s %6s %12s %10s %8s\n", "profile", "cols", "rows",
              "config_bits", "full_ms", "partial?");
  for (const DeviceProfile& p : allProfiles()) {
    Device dev = p.makeDevice();
    ConfigPort port(dev, p.port);
    std::printf("%-16s %6u %6u %12u %10.2f %8s\n", p.name.c_str(),
                dev.geometry().cols, dev.geometry().rows,
                dev.configMap().totalBits(),
                toMilliseconds(port.fullDownloadCost()),
                p.port.partialReconfig ? "yes" : "no");
    json.sample("vfpga_bench_e1_full_ms", {{"profile", p.name}},
                toMilliseconds(port.fullDownloadCost()));
  }

  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  ConfigPort port(dev, prof.port);
  Compiler compiler(dev);

  tableHeader("E1", "per-circuit download cost, medium device (12 cols)");
  std::printf("%-12s %6s %6s %8s %10s %10s %8s\n", "circuit", "cells",
              "width", "frames", "partial_ms", "full_ms", "ratio");
  for (const BenchCircuit& bc : standardCircuits()) {
    CompiledCircuit c = compiler.compile(
        bc.netlist, Region::columns(dev.geometry(), 0, bc.width));
    const SimDuration partial = port.downloadCost(c.partialBitstream());
    const SimDuration full = port.downloadCost(c.fullBitstream());
    std::printf("%-12s %6zu %6u %8zu %10.3f %10.3f %8.1fx\n",
                bc.name.c_str(), c.cellCount(), c.region.w,
                c.partialBitstream().frameCount(),
                toMilliseconds(partial), toMilliseconds(full),
                double(full) / double(partial));
    const obs::Labels l{{"circuit", bc.name}};
    json.sample("vfpga_bench_e1_frames", l,
                static_cast<double>(c.partialBitstream().frameCount()));
    json.sample("vfpga_bench_e1_partial_ms", l, toMilliseconds(partial));
  }

  tableHeader("E1",
              "sustainable reconfiguration rate at 10% config overhead");
  std::printf("%-16s %14s %18s\n", "port_mode", "switch_cost_ms",
              "reconfigs_per_sec");
  {
    // Representative circuit: 4-column strip.
    CompiledCircuit c = compiler.compile(
        standardCircuits()[0].netlist,
        Region::columns(dev.geometry(), 0, 4));
    const SimDuration partial = port.downloadCost(c.partialBitstream());
    const SimDuration full = port.fullDownloadCost();
    for (auto [mode, cost] : {std::pair<const char*, SimDuration>{
                                  "partial_frames", partial},
                              {"serial_full", full}}) {
      // 10% overhead budget: rate = 0.1 / cost.
      const double perSec = 0.1 / toSeconds(cost);
      std::printf("%-16s %14.3f %18.1f\n", mode, toMilliseconds(cost),
                  perSec);
      json.sample("vfpga_bench_e1_reconfigs_per_s", {{"mode", mode}}, perSec);
    }
  }

  // XC4000 anchor: the paper's 200 ms bound.
  {
    DeviceProfile x = xc4000SerialProfile();
    Device xdev = x.makeDevice();
    ConfigPort xport(xdev, x.port);
    const double ms = toMilliseconds(xport.fullDownloadCost());
    std::printf("\npaper anchor: XC4000-class full serial download = %.1f ms "
                "(paper: \"no more than 200 ms\") -> %s\n",
                ms, ms <= 200.0 ? "within bound" : "OUT OF BOUND");
  }
  json.write();
  return 0;
}
