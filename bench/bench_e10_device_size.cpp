// E10 — Device size vs performance: the cost-reduction frontier (paper §1).
//
// Claim reproduced: the VFPGA exists "to reduce the costs by adopting
// smaller FPGAs when the application performance can still be satisfied"
// (§1). One fixed workload (the telecom suite under partitioned-variable
// management) is run on devices of increasing width; the table shows how
// makespan, waiting and reconfiguration traffic shrink as columns are
// added — and where adding silicon stops paying.
//
// "Cost" proxy: device area in CLBs (config bits scale with it, see E1).
#include "bench_util.hpp"
#include "core/os_kernel.hpp"
#include "workloads/taskset.hpp"

using namespace vfpga;
using namespace vfpga::bench;

namespace {

struct SizeResult {
  std::uint16_t cols = 0;
  std::uint32_t clbs = 0;
  SimDuration makespan = 0;
  double meanWaitMs = 0;
  SimDuration configTime = 0;
  double busy = 0;
};

SizeResult runAt(std::uint16_t cols) {
  DeviceProfile prof = mediumPartialProfile();
  prof.geometry.cols = cols;
  Device dev = prof.makeDevice();
  ConfigPort port(dev, prof.port);
  Compiler compiler(dev);
  Simulation sim;
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  OsKernel kernel(sim, dev, port, compiler, opt);

  // Three configurations of widths 4 / 4 / 5, ten tasks.
  auto circuits = standardCircuits();
  std::vector<ConfigId> cfgs;
  for (std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
    cfgs.push_back(kernel.registerConfig(compiler.compile(
        circuits[i].netlist,
        Region::columns(dev.geometry(), 0, circuits[i].width))));
  }
  workloads::TaskSetParams params;
  params.numTasks = 10;
  params.numConfigs = 3;
  params.execsPerTask = 3;
  params.minCycles = 200000;
  params.maxCycles = 800000;
  params.meanArrivalGapMs = 0.3;
  params.oneConfigPerTask = true;
  Rng rng(616);
  for (auto& spec : workloads::makeTaskSet(params, rng)) {
    kernel.addTask(spec);
  }
  kernel.run();
  const auto& m = kernel.metrics();
  SizeResult r;
  r.cols = cols;
  r.clbs = dev.geometry().clbCount();
  r.makespan = m.makespan;
  r.meanWaitMs = m.waitTime.mean() / double(kMillisecond);
  r.configTime = m.configTime;
  r.busy = m.fpgaUtilization();
  return r;
}

}  // namespace

int main() {
  BenchJson json("e10_device_size");
  tableHeader("E10", "device width sweep, fixed telecom-style workload "
                     "(partitioned-variable policy)");
  std::printf("%-6s %8s %10s %10s %10s %8s %14s\n", "cols", "CLBs",
              "mksp_ms", "wait_ms", "cfg_ms", "busy%", "mksp_per_area");
  SizeResult base{};
  for (std::uint16_t cols : {5, 8, 10, 13, 16, 20, 26}) {
    const SizeResult r = runAt(cols);
    if (base.cols == 0) base = r;
    std::printf("%-6u %8u %10.2f %10.2f %10.2f %7.1f%% %14.2f\n", r.cols,
                r.clbs, toMilliseconds(r.makespan), r.meanWaitMs,
                toMilliseconds(r.configTime), 100 * r.busy,
                toMilliseconds(r.makespan) * r.clbs / 1000.0);
    const obs::Labels l{{"cols", std::to_string(cols)}};
    json.sample("vfpga_bench_e10_makespan_ms", l, toMilliseconds(r.makespan));
    json.sample("vfpga_bench_e10_wait_ms", l, r.meanWaitMs);
    json.sample("vfpga_bench_e10_config_ms", l, toMilliseconds(r.configTime));
    json.sample("vfpga_bench_e10_busy", l, r.busy);
  }
  std::printf("\nreading: makespan falls steeply while added columns admit "
              "more concurrent partitions, then flattens once every task "
              "fits — past that point extra area only costs money. The "
              "knee is the 'smaller FPGA with performance still satisfied' "
              "the paper's §1 wants you to buy.\n");
  json.write();
  return 0;
}
