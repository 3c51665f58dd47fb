// Eager-versus-lazy elaboration differential over the fabric-rewriting
// paths. Two devices take the same seeded sequence of operations: partial
// downloads of relocated library circuits at random base columns (with or
// without a state load), clearConfig, LUT upsets, readback scrub repair,
// applyInitialState / restoreState / setFfState, and evaluate / tick.
// Device A elaborates after every mutation; device B never asks, so its
// register writes land while its elaboration is stale. After every step
// the dense FF state, every loaded circuit's saved state and every pad
// output must agree. One seed also serves B through the compiled engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "fabric/config_port.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"
#include "sim/compiled/compiled_fabric.hpp"
#include "sim/rng.hpp"
#include "workloads/compile_suite.hpp"

namespace vfpga {
namespace {

/// Library circuits compiled once at their minimal strip width;
/// relocated[i][x0] is circuit i relocated to base column x0.
const std::vector<std::vector<CompiledCircuit>>& relocated() {
  static const std::vector<std::vector<CompiledCircuit>> pool = [] {
    Device host = mediumPartialProfile().makeDevice();
    Compiler compiler(host);
    std::vector<std::vector<CompiledCircuit>> out;
    for (const Netlist& nl :
         {lib::makeCounter(6), lib::makeLfsr(8, 0b10111000),
          lib::makeSerialCrc(8, 0x07), lib::makeChecksum(4)}) {
      const CompiledCircuit base = workloads::compileMinimal(compiler, nl);
      std::vector<CompiledCircuit>& row = out.emplace_back();
      for (int x0 = 0; x0 + base.region.w <= host.geometry().cols; ++x0) {
        row.push_back(x0 == base.region.x0
                          ? base
                          : compiler.relocate(
                                base, static_cast<std::uint16_t>(x0)));
      }
    }
    return out;
  }();
  return pool;
}

struct Side {
  explicit Side(const DeviceProfile& prof)
      : dev(prof.makeDevice()), port(dev, prof.port) {}
  Device dev;
  ConfigPort port;
};

std::vector<bool> randomBits(Rng& rng, std::size_t n) {
  std::vector<bool> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.bernoulli(0.5);
  return v;
}

/// Runs `steps` seeded operations and counts in `staleWrites` the steps
/// that wrote registers into B while its elaboration was stale (so a run
/// can show it tested the lazy path).
void runDifferential(std::uint64_t seed, int steps, bool compiled,
                     std::size_t& staleWrites) {
  const DeviceProfile prof = mediumPartialProfile();
  Side a(prof), b(prof);
  std::unique_ptr<compiled::CompiledFabric> fast;
  if (compiled) fast = std::make_unique<compiled::CompiledFabric>(b.dev);
  const FabricGeometry& g = a.dev.geometry();
  const ConfigMap& map = a.dev.configMap();
  const auto& circuits = relocated();
  Rng rng(seed);
  std::vector<const CompiledCircuit*> loaded;
  staleWrites = 0;

  // Applies one mutation to both devices; only A elaborates afterwards.
  auto both = [&](auto&& mutate) {
    mutate(a);
    (void)a.dev.elaboration();
    mutate(b);
  };

  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    const std::uint64_t cyclesBefore = b.dev.cyclesTicked();
    bool wroteStale = false;
    switch (rng.below(10)) {
      case 0:
      case 1:
      case 2: {  // partial download of a relocated circuit, then its state
        const auto& row = circuits[rng.below(circuits.size())];
        const CompiledCircuit& c = row[rng.below(row.size())];
        const Bitstream bs = c.partialBitstream();
        both([&](Side& s) { s.port.download(bs); });
        std::erase_if(loaded, [&](const CompiledCircuit* l) {
          return l->region.x0 < c.region.x0 + c.region.w &&
                 c.region.x0 < l->region.x0 + l->region.w;
        });
        loaded.push_back(&c);
        const std::uint64_t load = rng.below(3);
        const std::vector<bool> state = randomBits(rng, c.ffCount());
        if (load == 0) {
          both([&](Side& s) { LoadedCircuit(s.dev, c).applyInitialState(); });
        } else if (load == 1) {
          both([&](Side& s) { LoadedCircuit(s.dev, c).restoreState(state); });
        }
        wroteStale = load != 2 && c.ffCount() > 0;
        break;
      }
      case 3:  // blank the device
        both([](Side& s) {
          s.dev.clearConfig();
          s.port.resyncExpected();
        });
        loaded.clear();
        break;
      case 4: {  // a configuration upset in one LUT bit
        const auto x = static_cast<int>(rng.below(g.cols));
        const auto y = static_cast<int>(rng.below(g.rows));
        const std::uint32_t bit = map.clbLutBit(
            x, y, static_cast<std::uint32_t>(rng.below(g.lutBits())));
        both([&](Side& s) {
          s.dev.setConfigBit(bit, !s.dev.image().get(bit));
        });
        break;
      }
      case 5:  // readback scrub rewrites every frame that differs
        both([](Side& s) { (void)s.port.scrub(); });
        break;
      case 6: {  // initial or random state into one loaded circuit
        if (loaded.empty()) break;
        const CompiledCircuit& c = *loaded[rng.below(loaded.size())];
        if (rng.bernoulli(0.5)) {
          both([&](Side& s) { LoadedCircuit(s.dev, c).applyInitialState(); });
        } else {
          const std::vector<bool> state = randomBits(rng, c.ffCount());
          both([&](Side& s) { LoadedCircuit(s.dev, c).restoreState(state); });
        }
        break;
      }
      case 7: {  // dense writeback of the whole device
        const std::vector<bool> state = randomBits(rng, a.dev.ffCount());
        both([&](Side& s) { s.dev.setFfState(state); });
        break;
      }
      default: {  // drive every pad slot and run a few cycles
        const auto cycles = static_cast<int>(rng.range(1, 4));
        for (int k = 0; k < cycles; ++k) {
          const std::vector<bool> pads = randomBits(rng, g.padSlotCount());
          both([&](Side& s) {
            for (std::size_t p = 0; p < pads.size(); ++p) {
              s.dev.setPadSlotInput(p, pads[p]);
            }
            s.dev.evaluate();
          });
          if (k + 1 < cycles) both([](Side& s) { s.dev.tick(); });
        }
        break;
      }
    }

    // Per-site reads first: they must not elaborate B either.
    for (const CompiledCircuit* c : loaded) {
      ASSERT_EQ(LoadedCircuit(a.dev, *c).saveState(),
                LoadedCircuit(b.dev, *c).saveState());
    }
    if (wroteStale) {
      ++staleWrites;
      EXPECT_EQ(b.dev.cyclesTicked(), cyclesBefore)
          << "a register write elaborated the device";
    }
    ASSERT_EQ(a.dev.ffState(), b.dev.ffState());
    for (std::size_t p = 0; p < g.padSlotCount(); ++p) {
      ASSERT_EQ(a.dev.padSlotOutput(p), b.dev.padSlotOutput(p)) << "pad " << p;
    }
  }
  if (fast != nullptr) {
    EXPECT_GT(fast->stats().compiledEvaluates, 0u);
    EXPECT_GT(fast->stats().compiledTicks, 0u);
  }
}

TEST(FfStoreDifferential, EagerAndLazyElaborationAgree) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::size_t staleWrites = 0;
    runDifferential(seed, 400, false, staleWrites);
    if (HasFatalFailure()) return;
    EXPECT_GT(staleWrites, 40u);
  }
}

TEST(FfStoreDifferential, LazyDeviceOnCompiledEngineAgrees) {
  std::size_t staleWrites = 0;
  runDifferential(5, 400, true, staleWrites);
  EXPECT_GT(staleWrites, 40u);
}

}  // namespace
}  // namespace vfpga
