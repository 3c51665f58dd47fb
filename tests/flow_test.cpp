// End-to-end CAD flow tests: netlist -> map -> place -> route -> bitstream
// -> device, asserting the configured device is cycle-accurate against the
// reference Evaluator, including after relocation and state save/restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "fabric/config_port.hpp"
#include "fabric/device_family.hpp"
#include "netlist/builder.hpp"
#include "netlist/evaluator.hpp"
#include "netlist/library/arith.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sim/rng.hpp"
#include "techmap/lut_mapper.hpp"

namespace vfpga {
namespace {

// ------------------------------------------------------------------- placer

TEST(Placer, AssignsDistinctInRegionSites) {
  Netlist nl = lib::makeRippleAdder(4);
  MappedNetlist m = mapToLuts(nl);
  Region region{1, 1, 4, 4};
  Rng rng(7);
  Placement p = place(m, region, rng);
  ASSERT_EQ(p.sites.size(), m.cells.size());
  std::set<std::pair<int, int>> used;
  for (const CellSite& s : p.sites) {
    EXPECT_TRUE(region.contains(s.x, s.y));
    EXPECT_TRUE(used.insert({s.x, s.y}).second) << "site reused";
  }
}

TEST(Placer, ThrowsWhenRegionTooSmall) {
  Netlist nl = lib::makeArrayMultiplier(4);
  MappedNetlist m = mapToLuts(nl);
  Rng rng(7);
  EXPECT_THROW(place(m, Region{0, 0, 2, 2}, rng), std::runtime_error);
}

TEST(Placer, AnnealingBeatsRandomPlacement) {
  Netlist nl = lib::makeParallelCrc(16, 0x1021, 8);
  MappedNetlist m = mapToLuts(nl);
  Region region = Region{0, 0, 8, 8};
  Rng rng(11);
  // A "random placement" is what the SA loop starts from; measure it by
  // running with zero optimization effort.
  PlaceOptions noEffort;
  noEffort.movesPerCellPerTemp = 0;  // clamps to the minimum internally
  PlaceOptions full;
  Rng rngA(11), rngB(11);
  Placement random = place(m, region, rngA, noEffort);
  Placement optimized = place(m, region, rngB, full);
  EXPECT_LT(optimized.finalCost, random.finalCost);
}

TEST(Placer, DeterministicForSameSeed) {
  Netlist nl = lib::makeAlu(4);
  MappedNetlist m = mapToLuts(nl);
  Rng a(3), b(3);
  Placement pa = place(m, Region{0, 0, 6, 6}, a);
  Placement pb = place(m, Region{0, 0, 6, 6}, b);
  for (std::size_t i = 0; i < pa.sites.size(); ++i) {
    EXPECT_EQ(pa.sites[i].x, pb.sites[i].x);
    EXPECT_EQ(pa.sites[i].y, pb.sites[i].y);
  }
}

// ------------------------------------------------------------------- router

TEST(Router, RoutesSimpleNetAndReportsHops) {
  Device dev(FabricGeometry{4, 4, 4, 4, 2});
  const RoutingGraph& rrg = dev.rrg();
  RouteRequest req;
  req.source = rrg.clbOut(0, 0);
  req.sinks = {rrg.clbIn(2, 2, 0)};
  Router router(rrg);
  auto result = router.routeAll({req});
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->nets.size(), 1u);
  EXPECT_GE(result->nets[0].edges.size(), 2u);
  EXPECT_EQ(result->nets[0].sinkHops.size(), 1u);
}

TEST(Router, RespectsAllowedMask) {
  Device dev(FabricGeometry{4, 4, 4, 4, 2});
  const RoutingGraph& rrg = dev.rrg();
  // Confine to columns [0,1] but ask for a sink in column 3.
  Router router(rrg, columnRangeMask(rrg, 0, 1));
  RouteRequest req;
  req.source = rrg.clbOut(0, 0);
  req.sinks = {rrg.clbIn(3, 0, 0)};
  EXPECT_FALSE(router.routeAll({req}).has_value());
}

TEST(Router, NegotiatesCongestionGreedyCannotResolve) {
  // Many nets from the same corner region: first-fit greedy should fail or
  // conflict where negotiation succeeds.
  Device dev(FabricGeometry{4, 4, 4, 2, 2});  // only 2 wires per channel
  const RoutingGraph& rrg = dev.rrg();
  std::vector<RouteRequest> reqs;
  for (int i = 0; i < 4; ++i) {
    RouteRequest r;
    r.source = rrg.clbOut(0, i);
    r.sinks = {rrg.clbIn(3, i, 0), rrg.clbIn(3, (i + 1) % 4, 1)};
    reqs.push_back(r);
  }
  Router router(rrg);
  RouteOptions negotiated;
  auto ok = router.routeAll(reqs, negotiated);
  EXPECT_TRUE(ok.has_value());
  // Verify legality: no node shared between nets.
  if (ok) {
    std::set<RRNodeId> used;
    for (const RoutedNet& net : ok->nets) {
      for (RRNodeId n : net.nodes) {
        EXPECT_TRUE(used.insert(n).second)
            << "node shared: " << rrg.describe(n);
      }
    }
  }
}

TEST(Router, SharedTreeNodesAppearOncePerNet) {
  Device dev(FabricGeometry{4, 4, 4, 4, 2});
  const RoutingGraph& rrg = dev.rrg();
  RouteRequest req;
  req.source = rrg.clbOut(1, 1);
  req.sinks = {rrg.clbIn(3, 1, 0), rrg.clbIn(3, 2, 0), rrg.clbIn(3, 3, 0)};
  Router router(rrg);
  auto result = router.routeAll({req});
  ASSERT_TRUE(result.has_value());
  std::set<RRNodeId> nodes(result->nets[0].nodes.begin(),
                           result->nets[0].nodes.end());
  EXPECT_EQ(nodes.size(), result->nets[0].nodes.size());
}

// ----------------------------------------------------------- full flow

/// Compiles `nl` onto a fresh tiny/medium device, downloads it, and checks
/// cycle-accuracy against the Evaluator over `cycles` random cycles.
void expectDeviceEquivalent(const Netlist& nl, Device& dev,
                            const Region& region, int cycles,
                            std::uint64_t seed, bool relocatable = true) {
  Compiler compiler(dev);
  CompileOptions opt;
  opt.relocatable = relocatable;
  opt.seed = seed;
  CompiledCircuit c = compiler.compile(nl, region, opt);

  dev.clearConfig();
  dev.applyBitstream(c.fullBitstream());
  ASSERT_TRUE(dev.configOk()) << dev.elaboration().faults.front();
  LoadedCircuit lc(dev, c);
  lc.applyInitialState();

  Evaluator ref(nl);
  Rng rng(seed * 77 + 1);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    std::vector<bool> in(nl.inputs().size());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.bernoulli(0.5);
    ref.setInputs(in);
    for (std::size_t i = 0; i < in.size(); ++i) {
      lc.setInput(nl.gate(nl.inputs()[i]).name, in[i]);
    }
    ref.eval();
    lc.evaluate();
    for (GateId out : nl.outputs()) {
      ASSERT_EQ(lc.output(nl.gate(out).name), ref.value(out))
          << "output " << nl.gate(out).name << " cycle " << cycle;
    }
    ref.tick();
    lc.tick();
  }
}

TEST(Flow, CombinationalAdderOnTinyDevice) {
  Device dev = tinyProfile().makeDevice();
  Netlist nl = lib::makeRippleAdder(4);
  expectDeviceEquivalent(nl, dev, Region::full(dev.geometry()), 48, 5,
                         /*relocatable=*/false);
}

TEST(Flow, SequentialCounterOnTinyDevice) {
  Device dev = tinyProfile().makeDevice();
  Netlist nl = lib::makeCounter(4);
  expectDeviceEquivalent(nl, dev, Region::full(dev.geometry()), 64, 6,
                         /*relocatable=*/false);
}

TEST(Flow, SerialCrcOnStrip) {
  Device dev = mediumPartialProfile().makeDevice();
  Netlist nl = lib::makeSerialCrc(8, 0x07);
  expectDeviceEquivalent(nl, dev, Region::columns(dev.geometry(), 2, 4), 96,
                         7);
}

TEST(Flow, PiControllerOnStrip) {
  Device dev = mediumPartialProfile().makeDevice();
  Netlist nl = lib::makePiController(6, 1, 2);
  expectDeviceEquivalent(nl, dev, Region::columns(dev.geometry(), 0, 6), 48,
                         8);
}

TEST(Flow, ConvolutionalEncoderOnStrip) {
  Device dev = mediumPartialProfile().makeDevice();
  Netlist nl = lib::makeConvolutionalEncoder(5, {0b10111, 0b11001});
  expectDeviceEquivalent(nl, dev, Region::columns(dev.geometry(), 6, 4), 96,
                         9);
}

TEST(Flow, CompileErrorsAreDiagnosed) {
  Device dev = tinyProfile().makeDevice();
  Compiler compiler(dev);
  // Too many cells for a 1-column strip.
  Netlist big = lib::makeArrayMultiplier(4);
  EXPECT_THROW(
      compiler.compile(big, Region::columns(dev.geometry(), 0, 1)),
      CompileError);
  // Region outside the device.
  Netlist small = lib::makeParityTree(4);
  EXPECT_THROW(compiler.compile(small, Region{5, 0, 4, 4}), CompileError);
}

TEST(Flow, IoCapacityLimitEnforced) {
  Device dev = tinyProfile().makeDevice();
  Compiler compiler(dev);
  // 2 columns * 2 pads * 4 slots = 16 relocatable slots; parity-16 needs 17.
  Netlist nl = lib::makeParityTree(16);
  EXPECT_GT(nl.inputs().size() + nl.outputs().size(),
            compiler.ioCapacity(Region::columns(dev.geometry(), 0, 2), true));
  EXPECT_THROW(compiler.compile(nl, Region::columns(dev.geometry(), 0, 2)),
               CompileError);
}

TEST(Flow, PartialBitstreamTouchesOnlyRegionFrames) {
  Device dev = mediumPartialProfile().makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeChecksum(4);
  CompiledCircuit c =
      compiler.compile(nl, Region::columns(dev.geometry(), 4, 3));
  const ConfigMap& map = dev.configMap();
  auto [f0, f1] = map.framesOfColumns(4, 6);
  // The partial bitstream is every frame of the region, in order, sealed.
  const Bitstream& bs = c.partialBitstream();
  EXPECT_FALSE(bs.full);
  EXPECT_TRUE(bs.crcOk());
  EXPECT_EQ(bs.frameBits, map.frameBits());
  ASSERT_EQ(bs.frameCount(), f1 - f0);
  for (std::uint32_t i = 0; i < bs.frameCount(); ++i) {
    EXPECT_EQ(bs.frames[i].id, f0 + i);
    EXPECT_EQ(bs.frames[i].payload.size(), payloadBytes(map.frameBits()));
  }
  // It is the circuit's whole configuration: the full bitstream is it on a
  // blank device.
  ConfigImage fromPartial(map.totalBits());
  applyBitstream(fromPartial, bs);
  ConfigImage fromFull(map.totalBits());
  applyBitstream(fromFull, c.fullBitstream());
  EXPECT_EQ(fromFull, fromPartial);
  EXPECT_NE(fromPartial, ConfigImage(map.totalBits()));
}

TEST(Flow, TwoCircuitsCoexistInDisjointStrips) {
  Device dev = mediumPartialProfile().makeDevice();
  Compiler compiler(dev);
  Netlist nlA = lib::makeChecksum(4);
  Netlist nlB = lib::makeShiftRegister(6);
  CompiledCircuit a =
      compiler.compile(nlA, Region::columns(dev.geometry(), 0, 3));
  CompiledCircuit b =
      compiler.compile(nlB, Region::columns(dev.geometry(), 3, 3));
  dev.applyBitstream(a.partialBitstream());
  dev.applyBitstream(b.partialBitstream());
  ASSERT_TRUE(dev.configOk()) << dev.elaboration().faults.front();

  LoadedCircuit la(dev, a), lb(dev, b);
  // Drive both independently; FF indices interleave, so use the per-
  // circuit state maps rather than raw device state.
  Evaluator refA(nlA), refB(nlB);
  Rng rng(17);
  for (int cycle = 0; cycle < 32; ++cycle) {
    const std::uint64_t dA = rng.next() & 0xF;
    const bool dB = rng.bernoulli(0.5);
    la.setInputBus("d", 4, dA);
    lb.setInput("d", dB);
    refA.writeBus(findInputBus(nlA, "d", 4), dA);
    refB.setInput("d", dB);
    refA.eval();
    refB.eval();
    dev.evaluate();
    EXPECT_EQ(la.outputBus("acc", 4),
              refA.readBus(findOutputBus(nlA, "acc", 4)));
    EXPECT_EQ(lb.outputBus("q", 6), refB.readBus(findOutputBus(nlB, "q", 6)));
    refA.tick();
    refB.tick();
    dev.tick();
  }
}

TEST(Flow, RelocationPreservesFunction) {
  Device dev = mediumPartialProfile().makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeSerialCrc(8, 0x07);
  CompiledCircuit c =
      compiler.compile(nl, Region::columns(dev.geometry(), 0, 4));
  CompiledCircuit moved = compiler.relocate(c, 7);
  EXPECT_EQ(moved.region.x0, 7);
  EXPECT_EQ(moved.region.w, c.region.w);

  dev.clearConfig();
  dev.applyBitstream(moved.fullBitstream());
  ASSERT_TRUE(dev.configOk()) << dev.elaboration().faults.front();
  LoadedCircuit lc(dev, moved);
  lc.applyInitialState();
  Evaluator ref(nl);
  Rng rng(23);
  for (int cycle = 0; cycle < 64; ++cycle) {
    const bool d = rng.bernoulli(0.5);
    lc.setInput("d", d);
    ref.setInput("d", d);
    lc.evaluate();
    ref.eval();
    EXPECT_EQ(lc.outputBus("crc", 8), ref.readBus(findOutputBus(nl, "crc", 8)));
    lc.tick();
    ref.tick();
  }
}

TEST(Flow, RelocationMovesAllConfigBitsIntoTargetFrames) {
  Device dev = mediumPartialProfile().makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeChecksum(4);
  CompiledCircuit c =
      compiler.compile(nl, Region::columns(dev.geometry(), 0, 3));
  CompiledCircuit moved = compiler.relocate(c, 9);
  const ConfigMap& map = dev.configMap();
  auto [f0, f1] = map.framesOfColumns(9, 11);
  const auto setBits = [](const Bitstream& bs) {
    std::size_t n = 0;
    for (const Frame& f : bs.frames) {
      for (std::uint32_t i = 0; i < bs.frameBits; ++i) n += f.bit(i);
    }
    return n;
  };
  const Bitstream& bs = moved.partialBitstream();
  ASSERT_EQ(bs.frameCount(), f1 - f0);
  for (std::uint32_t i = 0; i < bs.frameCount(); ++i) {
    EXPECT_EQ(bs.frames[i].id, f0 + i);
  }
  EXPECT_TRUE(bs.crcOk());
  EXPECT_EQ(setBits(bs), setBits(c.partialBitstream()));
}

TEST(Flow, RelocateRefusesABitOutsideTheRegion) {
  Device dev = mediumPartialProfile().makeDevice();
  Compiler compiler(dev);
  CompiledCircuit c = compiler.compile(lib::makeChecksum(4),
                                       Region::columns(dev.geometry(), 0, 3));
  // Bind a port to the north pad of the column right of the region: its
  // enable bit lies in that column's frames, which the circuit does not own.
  ASSERT_FALSE(c.ports.empty());
  c.ports[0].padSlot = static_cast<std::uint32_t>(
      (c.region.x1() + 1) * dev.geometry().slotsPerPad);
  try {
    compiler.relocate(c, 5);
    ADD_FAILURE() << "a bit outside the region's frames was painted";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("outside the region's frames"),
              std::string::npos)
        << e.what();
  }
}

TEST(Flow, RelocateRejectsBadTargets) {
  Device dev = mediumPartialProfile().makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeChecksum(4);
  CompiledCircuit c =
      compiler.compile(nl, Region::columns(dev.geometry(), 0, 3));
  EXPECT_THROW(compiler.relocate(c, 11), CompileError);  // 11+3 > 12

  CompileOptions pinned;
  pinned.relocatable = false;
  CompiledCircuit fixed =
      compiler.compile(nl, Region::columns(dev.geometry(), 0, 3), pinned);
  EXPECT_THROW(compiler.relocate(fixed, 4), CompileError);
}

TEST(Flow, StateSaveRestoreAcrossReconfiguration) {
  // The dynamic-loading scenario from §3: run task A (a counter), preempt
  // it (save state), run task B (an LFSR), then restore A exactly where it
  // stopped.
  Device dev = mediumPartialProfile().makeDevice();
  ConfigPort port(dev, mediumPartialProfile().port);
  Compiler compiler(dev);
  const Region strip = Region::columns(dev.geometry(), 0, 6);
  Netlist nlA = lib::makeCounter(6);
  Netlist nlB = lib::makeLfsr(8, 0b10111000);
  CompiledCircuit a = compiler.compile(nlA, strip);
  CompiledCircuit b = compiler.compile(nlB, strip);

  port.download(a.fullBitstream());
  ASSERT_TRUE(dev.configOk());
  LoadedCircuit la(dev, a);
  la.applyInitialState();
  la.setInput("en", true);
  la.setInput("clr", false);
  for (int i = 0; i < 23; ++i) {
    la.evaluate();
    la.tick();
  }
  la.evaluate();
  EXPECT_EQ(la.outputBus("q", 6), 23u);
  const std::vector<bool> savedA = la.saveState();

  // Swap in task B, run it a while.
  port.download(b.fullBitstream());
  ASSERT_TRUE(dev.configOk());
  LoadedCircuit lb(dev, b);
  lb.applyInitialState();
  for (int i = 0; i < 9; ++i) {
    lb.evaluate();
    lb.tick();
  }

  // Swap task A back and restore its registers.
  port.download(a.fullBitstream());
  ASSERT_TRUE(dev.configOk());
  LoadedCircuit la2(dev, a);
  la2.restoreState(savedA);
  la2.setInput("en", true);
  la2.setInput("clr", false);
  la2.evaluate();
  EXPECT_EQ(la2.outputBus("q", 6), 23u);
  la2.tick();
  la2.evaluate();
  EXPECT_EQ(la2.outputBus("q", 6), 24u);
}

TEST(Flow, DeviceTimingMatchesDepth) {
  Device dev = tinyProfile().makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeParityTree(8);
  CompiledCircuit c = compiler.compile(
      nl, Region::full(dev.geometry()),
      [] {
        CompileOptions o;
        o.relocatable = false;
        return o;
      }());
  dev.applyBitstream(c.fullBitstream());
  ASSERT_TRUE(dev.configOk());
  // Critical path must be at least depth * lutDelay.
  const SimDuration lower = c.mapped.depth() * dev.timing().lutDelay;
  EXPECT_GE(dev.criticalPathDelay(), lower);
  EXPECT_GT(dev.minClockPeriod(), dev.criticalPathDelay());
}

}  // namespace
}  // namespace vfpga
