// E11 — Configuration prefetching (extension of §3's implicit loading).
//
// The loader speculatively downloads the predicted next configuration into
// a shadow half of the device while the active half computes. The sweep
// varies how predictable the activation sequence is and how much compute
// each activation performs (more compute = more time to hide the
// background download behind).
#include "bench_util.hpp"
#include "core/dynamic_loader.hpp"
#include "core/prefetch_loader.hpp"
#include "sim/rng.hpp"

using namespace vfpga;
using namespace vfpga::bench;

namespace {

/// A phase-structured trace: mostly cycles through a fixed round-robin of
/// configurations (predictable); with probability `noise` jumps randomly.
std::vector<ConfigId> makeTrace(std::size_t n, std::size_t configs,
                                double noise, Rng& rng) {
  std::vector<ConfigId> trace;
  ConfigId cur = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(noise)) {
      cur = static_cast<ConfigId>(rng.below(configs));
    } else {
      cur = static_cast<ConfigId>((cur + 1) % configs);
    }
    trace.push_back(cur);
  }
  return trace;
}

}  // namespace

int main() {
  DeviceProfile prof = mediumPartialProfile();
  const std::size_t kConfigs = 3;
  const std::size_t kCalls = 300;
  BenchJson json("e11_prefetch");

  tableHeader("E11", "prefetching vs demand loading "
                     "(300 activations, 3 configs, round-robin + noise)");
  std::printf("%-8s %10s | %12s | %12s %10s %10s\n", "noise", "compute",
              "demand_ms", "prefetch_ms", "hit_rate", "speedup");

  for (double noise : {0.0, 0.1, 0.3, 0.7}) {
    for (SimDuration computePerCall : {millis(1), millis(6)}) {
      Rng traceRng(5150);
      const auto trace = makeTrace(kCalls, kConfigs, noise, traceRng);

      auto makeCircuits = [&](Compiler& compiler, ConfigRegistry& registry) {
        auto circuits = standardCircuits();
        for (std::size_t i = 0; i < kConfigs; ++i) {
          registry.add(compiler.compile(
              circuits[i].netlist,
              Region::columns(compiler.geometry(), 0, circuits[i].width)));
        }
      };

      // Demand loading baseline (whole-device dynamic loader).
      SimDuration demandStall = 0;
      {
        Device dev = prof.makeDevice();
        ConfigPort port(dev, prof.port);
        Compiler compiler(dev);
        ConfigRegistry registry(dev);
        makeCircuits(compiler, registry);
        DynamicLoader loader(dev, port, registry);
        for (ConfigId id : trace) {
          demandStall += loader.activate(id, id).total;
        }
      }

      // Prefetching double buffer.
      SimDuration prefetchStall = 0;
      double hitRate = 0;
      {
        Device dev = prof.makeDevice();
        ConfigPort port(dev, prof.port);
        Compiler compiler(dev);
        ConfigRegistry registry(dev);
        makeCircuits(compiler, registry);
        PrefetchLoader loader(dev, port, registry, compiler);
        SimTime now = 0;
        for (ConfigId id : trace) {
          const auto r = loader.activate(id, now);
          prefetchStall += r.stall;
          now += r.stall + computePerCall;  // the compute hides prefetches
        }
        prefetchStall = loader.stallTotal();
        hitRate = loader.hitRate();
      }

      const double speedup =
          double(demandStall) /
          double(std::max<SimDuration>(prefetchStall, 1));
      std::printf("%-8.1f %9.0fms | %12.2f | %12.2f %9.0f%% %9.2fx\n", noise,
                  toMilliseconds(computePerCall),
                  toMilliseconds(demandStall), toMilliseconds(prefetchStall),
                  100 * hitRate, speedup);
      char noiseLabel[8];
      std::snprintf(noiseLabel, sizeof noiseLabel, "%.1f", noise);
      const obs::Labels l{
          {"noise", noiseLabel},
          {"compute_ms",
           std::to_string(static_cast<int>(toMilliseconds(computePerCall)))}};
      json.sample("vfpga_bench_e11_demand_ms", l, toMilliseconds(demandStall));
      json.sample("vfpga_bench_e11_prefetch_ms", l,
                  toMilliseconds(prefetchStall));
      json.sample("vfpga_bench_e11_hit_rate", l, hitRate);
      json.sample("vfpga_bench_e11_speedup", l, speedup);
    }
  }
  std::printf("\nreading: on predictable activation sequences with enough "
              "compute to hide the background download, prefetching removes "
              "nearly the entire reconfiguration stall; noise degrades it "
              "toward (and past) demand loading, since wrong prefetches "
              "also occupy the port.\n");
  json.write();
  return 0;
}
