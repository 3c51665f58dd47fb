// E5 — Variable-partition fragmentation and garbage collection (paper §4).
//
// Claims reproduced:
//  * variable partitions fragment: a task can starve "waiting for enough
//    room in a single partition while such a space may be actually
//    available even if split in more idle existing partitions";
//  * garbage collection (compaction by relocation) resolves the starvation
//    but "cannot be frequently applied" because each move re-downloads a
//    circuit (and moves its live state).
//
// Table 1: allocator-level churn — fragmentation statistics and how often
//          only compaction can satisfy a request, per fit policy.
// Table 2: end-to-end kernel runs with GC on/off: wide-task wait times and
//          the GC bill.
#include "bench_util.hpp"
#include "core/os_kernel.hpp"
#include "core/strip_allocator.hpp"
#include "sim/stats.hpp"

using namespace vfpga;
using namespace vfpga::bench;

namespace {

void allocatorChurnTable(BenchJson& json) {
  tableHeader("E5", "allocator churn: fragmentation per fit policy "
                    "(24 columns, widths 2-7, 20k ops)");
  std::printf("%-10s %10s %10s %12s %14s %12s\n", "fit", "mean_frag",
              "max_frag", "denials", "gc_would_fix", "gc_fix_rate");
  for (FitPolicy fit : {FitPolicy::kFirstFit, FitPolicy::kBestFit}) {
    StripAllocator alloc(24);
    Rng rng(1717);
    std::vector<PartitionId> held;
    OnlineStats frag;
    std::uint64_t denials = 0, gcWouldFix = 0;
    for (int step = 0; step < 20000; ++step) {
      if (!held.empty() && rng.bernoulli(0.48)) {
        const std::size_t i = rng.below(held.size());
        alloc.release(held[i]);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        const auto width = static_cast<std::uint16_t>(2 + rng.below(6));
        auto p = alloc.allocate(width, fit);
        if (p) {
          held.push_back(*p);
        } else {
          ++denials;
          if (alloc.wouldFitAfterCompaction(width)) ++gcWouldFix;
        }
      }
      frag.add(alloc.externalFragmentation());
    }
    std::printf("%-10s %10.3f %10.3f %12llu %14llu %11.1f%%\n",
                fit == FitPolicy::kFirstFit ? "first" : "best", frag.mean(),
                frag.max(), static_cast<unsigned long long>(denials),
                static_cast<unsigned long long>(gcWouldFix),
                denials ? 100.0 * double(gcWouldFix) / double(denials) : 0.0);
    const obs::Labels l{
        {"fit", fit == FitPolicy::kFirstFit ? "first" : "best"}};
    json.sample("vfpga_bench_e5_mean_frag", l, frag.mean());
    json.sample("vfpga_bench_e5_denials", l, static_cast<double>(denials));
    json.sample("vfpga_bench_e5_gc_would_fix", l,
                static_cast<double>(gcWouldFix));
  }
}

void kernelGcTable(BenchJson& json) {
  tableHeader("E5", "kernel runs: garbage collection on vs off "
                    "(long narrow holders fragment the device; wide tasks "
                    "arrive mid-stream)");
  std::printf("%-8s %10s %14s %8s %8s %12s\n", "config", "mksp_ms",
              "wide_wait_ms", "gc_runs", "relocs", "cfg_ms");
  for (bool gc : {true, false}) {
    DeviceProfile prof = mediumPartialProfile();
    Device dev = prof.makeDevice();
    ConfigPort port(dev, prof.port);
    Compiler compiler(dev);
    Simulation sim;
    OsOptions opt;
    opt.policy = FpgaPolicy::kPartitionedVariable;
    opt.garbageCollect = gc;
    OsKernel kernel(sim, dev, port, compiler, opt);

    auto makeCfg = [&](const std::string& name, Netlist nl,
                       std::uint16_t w) {
      nl.setName(name);
      return kernel.registerConfig(compiler.compile(
          nl, Region::columns(dev.geometry(), 0, w)));
    };
    const ConfigId c2 = makeCfg("w2", lib::makeShiftRegister(3), 2);
    const ConfigId c3 = makeCfg("w3", lib::makeChecksum(4), 3);
    const ConfigId c4 = makeCfg("w4", lib::makeChecksum(4), 4);
    const ConfigId c6 = makeCfg("w6", lib::makeChecksum(4), 6);

    // Four waves. Per wave: two long narrow holders pin the edges of the
    // occupancy map, two short fillers free the middle, then a wide task
    // arrives — it fits only after compaction (or after a holder exits).
    const SimDuration wave = millis(60);
    std::vector<std::size_t> wideTasks;
    std::size_t idx = 0;
    for (int w = 0; w < 4; ++w) {
      const SimTime t0 = static_cast<SimTime>(w) * wave;
      auto add = [&](const char* tag, SimTime at, ConfigId cfg,
                     std::uint64_t cycles) {
        TaskSpec spec;
        spec.name = std::string(tag) + std::to_string(w);
        spec.arrival = at;
        spec.ops = {FpgaExec{cfg, cycles}};
        kernel.addTask(spec);
        return idx++;
      };
      add("holdA", t0, c3, 1000000);            // ~30 ms at [0,3)
      add("fillB", t0 + micros(50), c4, 60000); // ~2 ms at [3,7)
      add("holdC", t0 + micros(100), c3, 1000000);  // ~30 ms at [7,10)
      add("fillD", t0 + micros(150), c2, 60000);    // ~2 ms at [10,12)
      wideTasks.push_back(
          add("wide", t0 + millis(5), c6, 30000));  // needs 6 contiguous
    }
    kernel.run();
    const auto& m = kernel.metrics();
    OnlineStats wideWait;
    for (std::size_t t : wideTasks) {
      wideWait.add(static_cast<double>(kernel.tasks()[t].fpgaWaitTotal));
    }
    std::printf("gc=%-5s %10.2f %14.3f %8llu %8llu %12.2f\n",
                gc ? "on" : "off", toMilliseconds(m.makespan),
                wideWait.mean() / double(kMillisecond),
                static_cast<unsigned long long>(m.garbageCollections),
                static_cast<unsigned long long>(m.relocations),
                toMilliseconds(m.configTime));
    const obs::Labels l{{"gc", gc ? "on" : "off"}};
    json.sample("vfpga_bench_e5_makespan_ms", l, toMilliseconds(m.makespan));
    json.sample("vfpga_bench_e5_wide_wait_ms", l,
                wideWait.mean() / double(kMillisecond));
    json.sample("vfpga_bench_e5_gc_runs", l,
                static_cast<double>(m.garbageCollections));
    json.sample("vfpga_bench_e5_relocations", l,
                static_cast<double>(m.relocations));
    json.sample("vfpga_bench_e5_config_ms", l, toMilliseconds(m.configTime));
  }
}

}  // namespace

int main() {
  BenchJson json("e5_fragmentation_gc");
  allocatorChurnTable(json);
  kernelGcTable(json);
  std::printf("\nreading: a large share of allocation denials are pure "
              "fragmentation (GC would fix them); enabling GC cuts the wide "
              "tasks' waits at the price of relocation downloads.\n");
  json.write();
  return 0;
}
