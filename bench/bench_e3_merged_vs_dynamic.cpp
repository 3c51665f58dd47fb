// E3 — Merged resident circuit vs dynamic loading (paper §3).
//
// Claim reproduced: "If the FPGA is large enough to accommodate
// contemporaneously all circuits required by all applications, a trivial
// solution is to merge all circuits into only one." The merged design
// needs no reconfiguration but a (costly) larger device; dynamic loading
// runs the same workload on a smaller device at a reconfiguration-time
// price. The table reports the area/makespan trade.
#include "bench_util.hpp"
#include "core/os_kernel.hpp"

using namespace vfpga;
using namespace vfpga::bench;

namespace {

/// Builds a merged netlist of the first n standard circuits.
Netlist mergedOf(std::size_t n) {
  Netlist merged("merged" + std::to_string(n));
  auto circuits = standardCircuits();
  for (std::size_t i = 0; i < n; ++i) {
    merged.merge(circuits[i].netlist, "m" + std::to_string(i) + "_");
  }
  return merged;
}

struct Row {
  std::size_t circuits;
  std::size_t mergedCells;
  std::uint16_t mergedWidth;   // columns on the big device (0 = doesn't fit)
  SimDuration mergedMakespan;
  SimDuration dynamicMakespan;
  std::uint64_t dynamicDownloads;
  SimDuration farmMakespan;    // one small device per circuit (§1: "many FPGAs")
  std::uint32_t farmClbs;      // total silicon across the farm
};

}  // namespace

int main() {
  // Big device hosts the merged design; small device uses dynamic loading.
  // Both share the same fabric and port constants — the big part is simply
  // twice as wide, so the comparison isolates area vs reconfiguration.
  DeviceProfile smallProf = mediumPartialProfile();  // 12 cols
  DeviceProfile bigProf = smallProf;
  bigProf.name = "medium_double";
  bigProf.geometry.cols = 24;

  BenchJson json("e3_merged_vs_dynamic");
  tableHeader("E3", "merged-resident (big FPGA) vs dynamic loading (small) "
                    "vs one-device-per-circuit farm");
  std::printf("%-9s %12s %12s %14s %14s %10s %12s %10s\n", "circuits",
              "merged_cells", "merged_cols", "merged_mksp_ms",
              "dynload_mksp_ms", "downloads", "farm_mksp_ms", "farm_CLBs");

  for (std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    Row row{};
    row.circuits = n;
    auto circuits = standardCircuits();

    // --- merged on the big device: one config, loaded once ---
    {
      Device dev = bigProf.makeDevice();
      ConfigPort port(dev, bigProf.port);
      Compiler compiler(dev);
      Netlist merged = mergedOf(n);
      // Find a width that routes.
      CompiledCircuit mergedC = [&] {
        for (std::uint16_t w = 6; w <= dev.geometry().cols; ++w) {
          try {
            CompileOptions opt;
            opt.seed = 3;
            opt.attempts = 2;
            return compiler.compile(merged,
                                    Region::columns(dev.geometry(), 0, w),
                                    opt);
          } catch (const CompileError&) {
            continue;
          }
        }
        throw CompileError("merged design does not fit the big device");
      }();
      row.mergedCells = mergedC.cellCount();
      row.mergedWidth = mergedC.region.w;

      Simulation sim;
      OsOptions opt;
      opt.policy = FpgaPolicy::kDynamicLoading;
      OsKernel kernel(sim, dev, port, compiler, opt);
      ConfigId cfg = kernel.registerConfig(mergedC);
      for (std::size_t t = 0; t < n; ++t) {
        TaskSpec spec;
        spec.name = "t" + std::to_string(t);
        for (int e = 0; e < 5; ++e) {
          spec.ops.push_back(CpuBurst{micros(5)});
          spec.ops.push_back(FpgaExec{cfg, 20000});
        }
        kernel.addTask(spec);
      }
      kernel.run();
      row.mergedMakespan = kernel.metrics().makespan;
    }

    // --- dynamic loading of the individual circuits on the small device ---
    {
      Device dev = smallProf.makeDevice();
      ConfigPort port(dev, smallProf.port);
      Compiler compiler(dev);
      Simulation sim;
      OsOptions opt;
      opt.policy = FpgaPolicy::kDynamicLoading;
      OsKernel kernel(sim, dev, port, compiler, opt);
      std::vector<ConfigId> cfgs;
      for (std::size_t i = 0; i < n; ++i) {
        cfgs.push_back(kernel.registerConfig(compiler.compile(
            circuits[i].netlist,
            Region::columns(dev.geometry(), 0, circuits[i].width))));
      }
      for (std::size_t t = 0; t < n; ++t) {
        TaskSpec spec;
        spec.name = "t" + std::to_string(t);
        for (int e = 0; e < 5; ++e) {
          spec.ops.push_back(CpuBurst{micros(5)});
          spec.ops.push_back(FpgaExec{cfgs[t], 20000});
        }
        kernel.addTask(spec);
      }
      kernel.run();
      row.dynamicMakespan = kernel.metrics().makespan;
      row.dynamicDownloads = kernel.metrics().downloads;
    }

    // --- the paper's other rejected alternative: one small device per
    //     circuit ("many FPGAs", §1). Each task runs alone on its own part:
    //     no contention, one download each — but n devices of silicon.
    {
      SimTime latest = 0;
      std::uint32_t clbs = 0;
      for (std::size_t t = 0; t < n; ++t) {
        Device dev = smallProf.makeDevice();
        ConfigPort port(dev, smallProf.port);
        Compiler compiler(dev);
        Simulation sim;
        OsOptions opt;
        opt.policy = FpgaPolicy::kDynamicLoading;
        OsKernel kernel(sim, dev, port, compiler, opt);
        ConfigId cfg = kernel.registerConfig(compiler.compile(
            circuits[t].netlist,
            Region::columns(dev.geometry(), 0, circuits[t].width)));
        TaskSpec spec;
        spec.name = "t" + std::to_string(t);
        for (int e = 0; e < 5; ++e) {
          spec.ops.push_back(CpuBurst{micros(5)});
          spec.ops.push_back(FpgaExec{cfg, 20000});
        }
        kernel.addTask(spec);
        kernel.run();
        latest = std::max(latest, kernel.metrics().makespan);
        clbs += static_cast<std::uint32_t>(dev.geometry().clbCount());
      }
      row.farmMakespan = latest;
      row.farmClbs = clbs;
    }

    std::printf("%-9zu %12zu %12u %14.2f %14.2f %10llu %12.2f %10u\n",
                row.circuits, row.mergedCells, row.mergedWidth,
                toMilliseconds(row.mergedMakespan),
                toMilliseconds(row.dynamicMakespan),
                static_cast<unsigned long long>(row.dynamicDownloads),
                toMilliseconds(row.farmMakespan), row.farmClbs);
    const obs::Labels l{{"circuits", std::to_string(n)}};
    json.sample("vfpga_bench_e3_merged_cols", l, row.mergedWidth);
    json.sample("vfpga_bench_e3_merged_makespan_ms", l,
                toMilliseconds(row.mergedMakespan));
    json.sample("vfpga_bench_e3_dynload_makespan_ms", l,
                toMilliseconds(row.dynamicMakespan));
    json.sample("vfpga_bench_e3_downloads", l,
                static_cast<double>(row.dynamicDownloads));
    json.sample("vfpga_bench_e3_farm_makespan_ms", l,
                toMilliseconds(row.farmMakespan));
  }
  std::printf("\nreading: merged wins on time but needs the double-width "
              "part; the per-circuit farm is fastest of all but burns n "
              "full devices of silicon; dynamic loading trades makespan for "
              "a single half-size part — exactly the \"without requiring "
              "either a very large FPGA or many FPGAs\" positioning of "
              "§1.\n");
  json.write();
  return 0;
}
