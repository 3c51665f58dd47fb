// Property-based tests over randomly generated circuits: the whole flow
// (gate netlist -> K-LUT mapping -> place & route -> bitstream -> device)
// must be an exact functional identity for *any* circuit, and malformed
// configuration data must be detected, never crash.
#include <gtest/gtest.h>

#include <string>

#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "fabric/device_family.hpp"
#include "netlist/evaluator.hpp"
#include "netlist/library/coding.hpp"
#include "sim/rng.hpp"
#include "techmap/lut_mapper.hpp"
#include "techmap/mapped_netlist.hpp"
#include "workloads/random_netlist.hpp"

namespace vfpga {
namespace {

using workloads::RandomNetlistParams;
using workloads::randomNetlist;

/// Drives reference and mapped evaluators in lockstep.
void expectMappedEquivalent(const Netlist& nl, const MappedNetlist& m,
                            std::uint64_t seed, int cycles) {
  Evaluator ref(nl);
  MappedEvaluator dut(m);
  Rng rng(seed);
  for (int c = 0; c < cycles; ++c) {
    std::vector<bool> in(nl.inputs().size());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.bernoulli(0.5);
    ref.setInputs(in);
    for (std::size_t i = 0; i < in.size(); ++i) dut.setInput(i, in[i]);
    ref.eval();
    dut.eval();
    for (std::size_t o = 0; o < m.outputs.size(); ++o) {
      ASSERT_EQ(dut.output(o), ref.value(nl.outputs()[o]))
          << "seed " << seed << " output " << o << " cycle " << c;
    }
    ref.tick();
    dut.tick();
  }
}

class FuzzMapping : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzMapping, RandomDagMapsEquivalently) {
  Rng rng(GetParam());
  RandomNetlistParams p;
  p.gates = 20 + rng.below(60);
  p.flops = rng.below(6);
  p.feedbackRegs = rng.below(3);
  Netlist nl = randomNetlist(p, rng);
  for (std::uint8_t k : {std::uint8_t{4}, std::uint8_t{6}}) {
    MappedNetlist m = mapToLuts(nl, MapOptions{k});
    for (const MappedCell& c : m.cells) ASSERT_LE(c.inputs.size(), k);
    expectMappedEquivalent(nl, m, GetParam() * 31 + k, 24);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMapping,
                         ::testing::Range<std::uint64_t>(1, 41));

class FuzzFullFlow : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzFullFlow, RandomCircuitSurvivesTheWholeFlow) {
  Rng rng(GetParam() * 977);
  RandomNetlistParams p;
  p.inputs = 4 + rng.below(4);
  p.outputs = 4 + rng.below(4);
  p.gates = 15 + rng.below(35);
  p.flops = rng.below(5);
  p.feedbackRegs = rng.below(3);
  Netlist nl = randomNetlist(p, rng);

  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  CompiledCircuit c = [&] {
    // Widen until it routes (random DAGs vary a lot in congestion).
    for (std::uint16_t w = 4; w <= dev.geometry().cols; ++w) {
      try {
        CompileOptions opt;
        opt.seed = GetParam();
        return compiler.compile(nl, Region::columns(dev.geometry(), 0, w),
                                opt);
      } catch (const CompileError&) {
        continue;
      }
    }
    throw CompileError("random circuit unroutable even at full width");
  }();

  dev.applyBitstream(c.fullBitstream());
  ASSERT_TRUE(dev.configOk()) << dev.elaboration().faults.front();
  LoadedCircuit lc(dev, c);
  lc.applyInitialState();

  Evaluator ref(nl);
  Rng drive(GetParam() * 13 + 5);
  for (int cycle = 0; cycle < 16; ++cycle) {
    std::vector<bool> in(nl.inputs().size());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = drive.bernoulli(0.5);
    ref.setInputs(in);
    for (std::size_t i = 0; i < in.size(); ++i) {
      lc.setInput(nl.gate(nl.inputs()[i]).name, in[i]);
    }
    ref.eval();
    lc.evaluate();
    for (GateId out : nl.outputs()) {
      ASSERT_EQ(lc.output(nl.gate(out).name), ref.value(out))
          << "seed " << GetParam() << " cycle " << cycle;
    }
    ref.tick();
    lc.tick();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFullFlow,
                         ::testing::Range<std::uint64_t>(1, 13));

/// A seeded random circuit on a medium partial device, compiled at column 0.
class FuzzRelocation : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  FuzzRelocation()
      : dev_(mediumPartialProfile().makeDevice()), compiler_(dev_) {
    Rng rng(GetParam() * 31337);
    RandomNetlistParams p;
    p.inputs = 4;
    p.outputs = 4;
    p.gates = 12 + rng.below(20);
    p.flops = rng.below(4);
    nl_ = randomNetlist(p, rng);
  }

  /// The circuit in the narrowest strip of 4 to 6 columns that fits.
  std::optional<CompiledCircuit> compile() {
    for (std::uint16_t w = 4; w <= 6; ++w) {
      try {
        CompileOptions opt;
        opt.seed = GetParam();
        return compiler_.compile(nl_, Region::columns(dev_.geometry(), 0, w),
                                 opt);
      } catch (const CompileError&) {
      }
    }
    return std::nullopt;
  }

  Device dev_;
  Compiler compiler_;
  Netlist nl_;
};

TEST_P(FuzzRelocation, RelocatedRandomCircuitStaysEquivalent) {
  std::optional<CompiledCircuit> compiled = compile();
  if (!compiled) {
    GTEST_SKIP() << "random circuit needs more than half the device";
  }
  CompiledCircuit& c = *compiled;
  const std::uint16_t newX0 =
      static_cast<std::uint16_t>(dev_.geometry().cols - c.region.w);
  CompiledCircuit moved = compiler_.relocate(c, newX0);

  dev_.applyBitstream(moved.fullBitstream());
  ASSERT_TRUE(dev_.configOk()) << dev_.elaboration().faults.front();
  LoadedCircuit lc(dev_, moved);
  lc.applyInitialState();
  Evaluator ref(nl_);
  Rng drive(GetParam() + 99);
  for (int cycle = 0; cycle < 12; ++cycle) {
    std::vector<bool> in(nl_.inputs().size());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = drive.bernoulli(0.5);
    ref.setInputs(in);
    for (std::size_t i = 0; i < in.size(); ++i) {
      lc.setInput(nl_.gate(nl_.inputs()[i]).name, in[i]);
    }
    ref.eval();
    lc.evaluate();
    for (GateId out : nl_.outputs()) {
      ASSERT_EQ(lc.output(nl_.gate(out).name), ref.value(out));
    }
    ref.tick();
    lc.tick();
  }
}

/// Same frame ids and payloads, compared frame by frame.
void expectSameFrames(const Bitstream& got, const Bitstream& want,
                      const std::string& what) {
  ASSERT_EQ(got.frameCount(), want.frameCount()) << what;
  for (std::size_t i = 0; i < want.frameCount(); ++i) {
    EXPECT_EQ(got.frames[i].id, want.frames[i].id) << what;
    EXPECT_EQ(got.frames[i].payload, want.frames[i].payload)
        << what << ", frame " << want.frames[i].id;
  }
  EXPECT_EQ(got.crc, want.crc) << what;
}

// A relocated circuit depends only on the registered circuit and the target
// column, never on where it sat before: the premise that lets the registry
// relocate each circuit once per column and hand the copy to every manager.
TEST_P(FuzzRelocation, RelocatingThroughAColumnEqualsRelocatingDirectly) {
  const std::optional<CompiledCircuit> compiled = compile();
  if (!compiled) {
    GTEST_SKIP() << "random circuit needs more than half the device";
  }
  const CompiledCircuit& c = *compiled;
  const auto last =
      static_cast<std::uint16_t>(dev_.geometry().cols - c.region.w);
  Rng rng(GetParam() + 7);
  const auto mid = static_cast<std::uint16_t>(1 + rng.below(last - 1));
  const CompiledCircuit direct = compiler_.relocate(c, last);
  const CompiledCircuit hopped =
      compiler_.relocate(compiler_.relocate(c, mid), last);

  expectSameFrames(hopped.partialBitstream(), direct.partialBitstream(),
                   "via x" + std::to_string(mid));
  EXPECT_EQ(hopped.region.x0, direct.region.x0);
  EXPECT_EQ(hopped.region.w, direct.region.w);
  EXPECT_EQ(hopped.placement.region.x0, direct.placement.region.x0);
  const auto sites = [](const std::vector<CellSite>& v) {
    std::vector<std::pair<int, int>> out;
    for (const CellSite& s : v) out.emplace_back(s.x, s.y);
    return out;
  };
  EXPECT_EQ(sites(hopped.placement.sites), sites(direct.placement.sites));
  EXPECT_EQ(sites(hopped.ffSites), sites(direct.ffSites));
  ASSERT_EQ(hopped.ports.size(), direct.ports.size());
  for (std::size_t i = 0; i < direct.ports.size(); ++i) {
    EXPECT_EQ(hopped.ports[i].padSlot, direct.ports[i].padSlot)
        << direct.ports[i].name;
  }
  ASSERT_EQ(hopped.routes.nets.size(), direct.routes.nets.size());
  for (std::size_t n = 0; n < direct.routes.nets.size(); ++n) {
    EXPECT_EQ(hopped.routes.nets[n].nodes, direct.routes.nets[n].nodes);
    EXPECT_EQ(hopped.routes.nets[n].edges, direct.routes.nets[n].edges);
  }
  // And the translation is invertible: moving back restores the partial.
  expectSameFrames(compiler_.relocate(direct, c.region.x0).partialBitstream(),
                   c.partialBitstream(), "moved back");
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRelocation,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------- fault injection

TEST(FaultInjection, RandomConfigBitsNeverCrashTheDevice) {
  // Arbitrary configuration RAM contents must either decode cleanly or be
  // reported as faults; elaboration and evaluation must never crash.
  Device dev(FabricGeometry{4, 4, 4, 4, 2}, DeviceTiming{}, 64);
  Rng rng(4096);
  for (int trial = 0; trial < 50; ++trial) {
    dev.clearConfig();
    const std::uint32_t flips = 1 + static_cast<std::uint32_t>(rng.below(200));
    for (std::uint32_t i = 0; i < flips; ++i) {
      dev.setConfigBit(
          static_cast<std::uint32_t>(rng.below(dev.configMap().totalBits())),
          true);
    }
    (void)dev.configOk();  // may be faulty; must not crash
    dev.evaluate();
    dev.tick();
    (void)dev.criticalPathDelay();
  }
}

TEST(FaultInjection, CorruptedBitstreamAlwaysCaughtByCrc) {
  DeviceProfile prof = tinyProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  Rng netRng(5);
  Netlist nl = randomNetlist(RandomNetlistParams{4, 4, 20, 2, 1}, netRng);
  CompiledCircuit c = compiler.compile(
      nl, Region::columns(dev.geometry(), 0, dev.geometry().cols),
      [] {
        CompileOptions o;
        o.relocatable = false;
        return o;
      }());
  Rng rng(6);
  for (int trial = 0; trial < 40; ++trial) {
    Bitstream bs = c.fullBitstream();
    Frame& f = bs.frames[rng.below(bs.frames.size())];
    f.flipBit(static_cast<std::uint32_t>(rng.below(bs.frameBits)));
    ASSERT_FALSE(bs.crcOk());
    ASSERT_THROW(dev.applyBitstream(bs), std::runtime_error);
  }
}

TEST(FaultInjection, FlippedFrameDetectedAfterResealOnlyByElaboration) {
  // If an attacker (or a soft error inside the RAM) flips a bit *after*
  // the CRC check, elaboration-level validation is the remaining net:
  // flipped switch bits surface as faults or decode to a different — but
  // never crashing — design.
  DeviceProfile prof = tinyProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeParityTree(4);
  CompileOptions opt;
  opt.relocatable = false;
  CompiledCircuit c =
      compiler.compile(nl, Region::full(dev.geometry()), opt);
  Rng rng(7);
  int faultsSeen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    dev.clearConfig();
    dev.applyBitstream(c.fullBitstream());
    dev.setConfigBit(
        static_cast<std::uint32_t>(rng.below(dev.configMap().totalBits())),
        rng.bernoulli(0.5));
    if (!dev.configOk()) ++faultsSeen;
    dev.evaluate();
  }
  EXPECT_GT(faultsSeen, 0);  // at least some flips must be detectable
}

}  // namespace
}  // namespace vfpga
