// K1-K3 — CAD-flow, simulator and equivalence-proof microbenchmarks
// (google-benchmark), plus the negotiated-congestion vs greedy routing
// ablation from DESIGN.md §5.
#include <benchmark/benchmark.h>

#include "analysis/equiv/verify.hpp"
#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "fabric/config_port.hpp"
#include "fabric/device_family.hpp"
#include "netlist/builder.hpp"
#include "netlist/evaluator.hpp"
#include "netlist/library/arith.hpp"
#include "netlist/library/coding.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "techmap/lut_mapper.hpp"
#include "workloads/app_circuits.hpp"
#include "workloads/compile_suite.hpp"

namespace {

using namespace vfpga;

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    std::uint64_t fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.scheduleAt(static_cast<SimTime>(i), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

void BM_NetlistEvaluation(benchmark::State& state) {
  Netlist nl = lib::makeParallelCrc(16, 0x1021, 8);
  Evaluator ev(nl);
  const Bus d = findInputBus(nl, "d", 8);
  Rng rng(1);
  for (auto _ : state) {
    ev.writeBus(d, rng.next() & 0xFF);
    ev.eval();
    ev.tick();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetlistEvaluation);

void BM_TechMap(benchmark::State& state) {
  Netlist nl = lib::makeArrayMultiplier(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    MappedNetlist m = mapToLuts(nl);
    benchmark::DoNotOptimize(m.cells.size());
  }
}
BENCHMARK(BM_TechMap)->Arg(4)->Arg(6);

void BM_Place(benchmark::State& state) {
  Netlist nl = lib::makeParallelCrc(16, 0x1021, 8);
  MappedNetlist m = mapToLuts(nl);
  for (auto _ : state) {
    Rng rng(7);
    Placement p = place(m, Region{0, 0, 10, 10}, rng);
    benchmark::DoNotOptimize(p.finalCost);
  }
}
BENCHMARK(BM_Place);

void BM_RouteNegotiated(benchmark::State& state) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeParallelCrc(16, 0x1021, 8);
  for (auto _ : state) {
    CompileOptions opt;
    opt.seed = 5;
    CompiledCircuit c =
        compiler.compile(nl, Region::columns(dev.geometry(), 0, 8), opt);
    benchmark::DoNotOptimize(c.routes.nets.size());
  }
}
BENCHMARK(BM_RouteNegotiated);

/// Ablation: greedy first-fit routing fails where negotiation succeeds;
/// measure the success rate over seeds on a congested strip.
void BM_RouterAblationGreedyFailRate(benchmark::State& state) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  // A congested 7-column CRC-16 datapath: greedy first-fit routing fails on
  // a third of placements where negotiation always converges.
  Netlist nl = lib::makeParallelCrc(16, 0x1021, 8);
  std::uint64_t greedyFails = 0, negotiatedFails = 0, trials = 0;
  for (auto _ : state) {
    for (bool greedy : {true, false}) {
      CompileOptions opt;
      opt.seed = 100 + trials;
      opt.attempts = 1;
      opt.route.greedy = greedy;
      try {
        (void)compiler.compile(nl, Region::columns(dev.geometry(), 0, 7),
                               opt);
      } catch (const CompileError&) {
        ++(greedy ? greedyFails : negotiatedFails);
      }
    }
    ++trials;
  }
  state.counters["greedy_fail_rate"] =
      trials ? static_cast<double>(greedyFails) / static_cast<double>(trials)
             : 0.0;
  state.counters["negotiated_fail_rate"] =
      trials ? static_cast<double>(negotiatedFails) /
                   static_cast<double>(trials)
             : 0.0;
}
BENCHMARK(BM_RouterAblationGreedyFailRate)->Iterations(10);

void BM_DeviceElaboration(benchmark::State& state) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeParallelCrc(16, 0x1021, 8);
  CompiledCircuit c =
      compiler.compile(nl, Region::columns(dev.geometry(), 0, 8));
  Bitstream bs = c.fullBitstream();
  for (auto _ : state) {
    dev.applyBitstream(bs);  // invalidates the elaboration
    benchmark::DoNotOptimize(dev.configOk());
  }
}
BENCHMARK(BM_DeviceElaboration);

/// The partial bitstream of a 16-bit parallel CRC in 8 columns of
/// medium_partial (148 frames of 128 bits).
Bitstream mediumPartial(Device& dev) {
  Compiler compiler(dev);
  return compiler
      .compile(lib::makeParallelCrc(16, 0x1021, 8),
               Region::columns(dev.geometry(), 0, 8))
      .partialBitstream();
}

// The device's stream check on every download: the frame CRC of a partial.
void BM_FrameCrc(benchmark::State& state) {
  Device dev = mediumPartialProfile().makeDevice();
  const Bitstream bs = mediumPartial(dev);
  for (auto _ : state) benchmark::DoNotOptimize(bs.crcOk());
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * bs.frameCount() * bs.frameBits / 8));
}
BENCHMARK(BM_FrameCrc);

// OsKernel::registerConfig's decode of a circuit: its partial on a blank
// image, the elaboration and the critical path.
void BM_RegisterDecode(benchmark::State& state) {
  Device dev = mediumPartialProfile().makeDevice();
  const Bitstream bs = mediumPartial(dev);
  for (auto _ : state) {
    ConfigImage image(dev.configMap().totalBits());
    applyBitstream(image, bs);
    const Elaboration elab = elaborate(dev.rrg(), dev.configMap(), image);
    benchmark::DoNotOptimize(criticalPathDelay(elab, dev.timing()));
  }
}
BENCHMARK(BM_RegisterDecode);

// The OS's register path after a download: a partial bitstream of a
// relocated circuit into the strip next to a resident one, then the
// loader's initial-state write and a state save. Register access by CLB
// site needs no elaborated device, so nothing here rebuilds it.
void BM_PartialDownloadWithState(benchmark::State& state) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  const CompiledCircuit resident =
      compiler.compile(lib::makeParallelCrc(16, 0x1021, 8),
                       Region::columns(dev.geometry(), 0, 8));
  const CompiledCircuit moved = compiler.relocate(
      compiler.compile(lib::makeSerialCrc(8, 0x07),
                       Region::columns(dev.geometry(), 0, 4)),
      8);
  dev.applyBitstream(resident.fullBitstream());
  const Bitstream bs = moved.partialBitstream();
  LoadedCircuit lc(dev, moved);
  for (auto _ : state) {
    dev.applyBitstream(bs);  // invalidates the elaboration
    lc.applyInitialState();
    benchmark::DoNotOptimize(lc.saveState());
  }
}
BENCHMARK(BM_PartialDownloadWithState);

// One readback scrub pass of the port over a configured device. With no
// upset (Arg 0) it compares every frame with the golden image; with one
// LUT-bit upset per pass (Arg 1) it also finds and rewrites that frame.
void BM_Scrub(benchmark::State& state) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  ConfigPort port(dev, prof.port);
  Compiler compiler(dev);
  const CompiledCircuit c =
      compiler.compile(lib::makeParallelCrc(16, 0x1021, 8),
                       Region::columns(dev.geometry(), 0, 8));
  port.download(c.partialBitstream());
  const bool upset = state.range(0) != 0;
  const std::uint32_t bit = dev.configMap().clbLutBit(3, 3, 0);
  for (auto _ : state) {
    if (upset) dev.setConfigBit(bit, !dev.image().get(bit));
    benchmark::DoNotOptimize(port.scrub());
  }
}
BENCHMARK(BM_Scrub)->Arg(0)->Arg(1);

void BM_DeviceEvaluateTick(benchmark::State& state) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeParallelCrc(16, 0x1021, 8);
  CompiledCircuit c =
      compiler.compile(nl, Region::columns(dev.geometry(), 0, 8));
  dev.applyBitstream(c.fullBitstream());
  LoadedCircuit lc(dev, c);
  Rng rng(3);
  for (auto _ : state) {
    lc.setInputBus("d", 8, rng.next() & 0xFF);
    dev.evaluate();
    dev.tick();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceEvaluateTick);

void BM_FullCompile(benchmark::State& state) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeRippleAdder(6);
  for (auto _ : state) {
    CompiledCircuit c =
        compiler.compile(nl, Region::columns(dev.geometry(), 0, 5));
    benchmark::DoNotOptimize(c.partialBitstream().frameCount());
  }
}
BENCHMARK(BM_FullCompile);

void BM_Relocate(benchmark::State& state) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeRippleAdder(6);
  CompiledCircuit c =
      compiler.compile(nl, Region::columns(dev.geometry(), 0, 5));
  std::uint16_t target = 1;
  for (auto _ : state) {
    CompiledCircuit moved = compiler.relocate(c, target);
    benchmark::DoNotOptimize(moved.region.x0);
    target = target == 1 ? 7 : 1;
  }
}
BENCHMARK(BM_Relocate);

// The proof ladder the OS runs after relocation, scrub repair and migration
// resume: extract the configured strip and prove it equal to the source
// netlist. mm_mac exercises register matching and the structural,
// exhaustive and BDD rungs.
void BM_CheckEquivalence(benchmark::State& state) {
  const workloads::AppCircuit app = workloads::appCircuitByName("mm_mac");
  Device dev = mediumPartialProfile().makeDevice();
  Compiler compiler(dev);
  const CompiledCircuit c = workloads::compileMinimal(compiler, app.netlist, 1);
  dev.applyBitstream(c.fullBitstream());
  for (auto _ : state) {
    const analysis::equiv::ConfiguredCheck chk =
        analysis::equiv::checkConfiguredAgainst(dev, c, app.netlist);
    if (!chk.ok()) state.SkipWithError("mm_mac failed its proof");
    benchmark::DoNotOptimize(chk.result.exhaustiveVectors);
  }
}
BENCHMARK(BM_CheckEquivalence)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
