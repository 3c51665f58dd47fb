// Formal equivalence checking tests: reverse extraction round-trips, the
// full library proving equivalent post-P&R and post-relocation, and — the
// heart of the contract — a seeded corruption corpus (LUT truth-table bit
// flips, routing mux swaps, corrupted relocated strips) where every
// corruption whose effect is observable at the device level must be
// flagged with a concrete, replayable counterexample. Plus the TA timing
// lint rules and the verifyConfiguredOrThrow invariant form.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/equiv/verify.hpp"
#include "analysis/timing_lint/timing_lint.hpp"
#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "fabric/device_family.hpp"
#include "fabric/sta.hpp"
#include "netlist/evaluator.hpp"
#include "netlist/library/control.hpp"
#include "sim/rng.hpp"
#include "techmap/mapped_netlist.hpp"
#include "workloads/app_circuits.hpp"
#include "workloads/compile_suite.hpp"

namespace vfpga {
namespace {

using analysis::equiv::checkConfigured;
using analysis::equiv::checkConfiguredAgainst;
using analysis::equiv::ConfiguredCheck;
using analysis::equiv::mappedToNetlist;
using analysis::equiv::replayCounterexample;

struct CompiledOnDevice {
  Device dev;
  CompiledCircuit c;
};

/// Compiles a named application circuit onto a minimal relocatable strip of
/// a fresh medium_partial device and downloads it.
CompiledOnDevice compileNamed(const std::string& name,
                              std::uint64_t seed = 1) {
  const workloads::AppCircuit app = workloads::appCircuitByName(name);
  CompiledOnDevice r{mediumPartialProfile().makeDevice(), {}};
  Compiler compiler(r.dev);
  r.c = workloads::compileMinimal(compiler, app.netlist, seed);
  r.dev.applyBitstream(r.c.fullBitstream());
  return r;
}

/// Every counterexample of a failed check must replay exactly against the
/// reference Evaluators of the two compared netlists.
void expectReplayableCounterexamples(const CompiledCircuit& c,
                                     const ConfiguredCheck& chk) {
  ASSERT_FALSE(chk.result.counterexamples.empty());
  const Netlist golden = mappedToNetlist(c.mapped, c.name + "@mapped");
  const Netlist revised =
      mappedToNetlist(chk.extracted.mapped, c.name + "@extracted");
  for (const auto& cx : chk.result.counterexamples) {
    EXPECT_TRUE(replayCounterexample(golden, revised, cx)) << cx.render();
  }
}

/// Device-level observability oracle, independent of the checker: runs the
/// (possibly corrupted) device against the compiler's MappedEvaluator with
/// random FF-state writebacks and random inputs. True when any output
/// diverges within `trials` single-cycle experiments.
bool corruptionObservable(Device& dev, const CompiledCircuit& c,
                          std::uint64_t seed, int trials = 48) {
  if (!dev.configOk()) return true;  // elaboration faults are observable
  MappedEvaluator me(c.mapped);
  LoadedCircuit lc(dev, c);
  Rng rng(seed);
  for (int t = 0; t < trials; ++t) {
    std::vector<bool> st(c.ffSites.size(), false);
    for (std::size_t k = 0; k < st.size(); ++k) st[k] = rng.below(2) != 0;
    me.setFfState(st);
    lc.restoreState(st);
    for (std::size_t i = 0; i < c.mapped.inputs.size(); ++i) {
      const bool v = rng.below(2) != 0;
      me.setInput(i, v);
      lc.setInput(c.mapped.inputs[i].name, v);
    }
    me.eval();
    lc.evaluate();
    for (std::size_t o = 0; o < c.mapped.outputs.size(); ++o) {
      if (me.output(o) != lc.output(c.mapped.outputs[o].name)) return true;
    }
  }
  return false;
}

/// All LUT truth-table bits of enabled cells whose entry index keeps every
/// *undriven* pin at 0 — the entries the device can actually exercise
/// (extraction cofactors undriven pins at 0, so other entries are
/// don't-care by construction).
std::vector<std::uint32_t> meaningfulLutBits(Device& dev) {
  const ConfigMap& cfg = dev.configMap();
  const std::uint32_t lutBits =
      static_cast<std::uint32_t>(dev.geometry().lutBits());
  std::vector<std::uint32_t> bits;
  for (const Elaboration::Cell& cell : dev.elaboration().cells) {
    std::uint32_t undrivenMask = 0;
    for (std::size_t p = 0; p < cell.inputs.size(); ++p) {
      if (cell.inputs[p].kind == SignalSource::Kind::kUndriven) {
        undrivenMask |= 1u << p;
      }
    }
    for (std::uint32_t j = 0; j < lutBits; ++j) {
      if ((j & undrivenMask) != 0) continue;
      bits.push_back(cfg.clbLutBit(cell.x, cell.y, j));
    }
  }
  return bits;
}

// ---- extraction round-trip -------------------------------------------------

TEST(Extraction, HealthyConfigurationRoundTrips) {
  CompiledOnDevice cod = compileNamed("ct_counter");
  const auto ext = analysis::equiv::extractConfigured(cod.dev, cod.c);
  ASSERT_TRUE(ext.ok()) << (ext.problems.empty() ? ext.portProblems[0]
                                                 : ext.problems[0]);
  EXPECT_EQ(ext.mapped.inputs.size(), cod.c.mapped.inputs.size());
  EXPECT_EQ(ext.mapped.outputs.size(), cod.c.mapped.outputs.size());

  // Independent functional cross-check: lockstep the extracted netlist
  // against the source netlist from reset under random stimulus.
  const Netlist src = workloads::appCircuitByName("ct_counter").netlist;
  const Netlist got = mappedToNetlist(ext.mapped, "ct_counter@extracted");
  Evaluator es(src), eg(got);
  es.reset();
  eg.reset();
  Rng rng(7);
  for (int t = 0; t < 256; ++t) {
    for (GateId in : src.inputs()) {
      const bool v = rng.below(2) != 0;
      es.setInput(src.gate(in).name, v);
      eg.setInput(src.gate(in).name, v);
    }
    es.eval();
    eg.eval();
    for (GateId out : src.outputs()) {
      ASSERT_EQ(es.value(out), eg.output(src.gate(out).name))
          << "output " << src.gate(out).name << " diverged at cycle " << t;
    }
    es.tick();
    eg.tick();
  }
}

TEST(Extraction, BlankRegionIsNotEquivalent) {
  CompiledOnDevice cod = compileNamed("ct_counter");
  cod.dev.clearConfig();  // circuit metadata now points at a blank fabric
  // A blank region still *decodes* (disabled output pads extract as
  // constant drivers) — it is the equivalence verdict that must fail.
  const ConfiguredCheck chk = checkConfigured(cod.dev, cod.c);
  EXPECT_FALSE(chk.ok());
  EXPECT_FALSE(chk.result.equivalent);
}

// ---- healthy circuits prove equivalent -------------------------------------

TEST(Equivalence, LibraryProvesPostPnrAndPostRelocate) {
  for (const workloads::AppCircuit& app : workloads::allSuites()) {
    CompiledOnDevice cod = compileNamed(app.name);

    const ConfiguredCheck pnr =
        checkConfiguredAgainst(cod.dev, cod.c, app.netlist);
    EXPECT_TRUE(pnr.ok()) << app.name << ": " << pnr.result.summary();
    EXPECT_TRUE(pnr.result.fullyProven)
        << app.name << ": " << pnr.result.summary();

    // Relocate to the far edge and prove the moved image still computes
    // the *source* netlist (not merely the pre-move image).
    Device dev2 = mediumPartialProfile().makeDevice();
    Compiler compiler2(dev2);
    const std::uint16_t newX0 =
        static_cast<std::uint16_t>(dev2.geometry().cols - cod.c.region.w);
    const CompiledCircuit moved = compiler2.relocate(cod.c, newX0);
    dev2.applyBitstream(moved.fullBitstream());
    const ConfiguredCheck rel =
        checkConfiguredAgainst(dev2, moved, app.netlist);
    EXPECT_TRUE(rel.ok()) << app.name << ": " << rel.result.summary();
    EXPECT_TRUE(rel.result.fullyProven)
        << app.name << ": " << rel.result.summary();
  }
}

// ---- seeded corruption corpus ----------------------------------------------

TEST(Corruption, SeededLutFlipCorpusIsFullyDetected) {
  // For every corruption whose effect the device-level oracle can observe,
  // the checker must report inequivalence with a replayable witness; and
  // whenever the checker claims equivalence the oracle must agree.
  int observable = 0;
  for (const char* name : {"ct_counter", "tc_crc8", "nw_parity", "ct_gray"}) {
    CompiledOnDevice cod = compileNamed(name);
    const std::vector<std::uint32_t> bits = meaningfulLutBits(cod.dev);
    ASSERT_FALSE(bits.empty());
    Rng rng(0xc0de ^ std::string_view(name).size());
    int observableHere = 0;
    for (std::size_t trial = 0; trial < bits.size() && observableHere < 6;
         ++trial) {
      const std::uint32_t bit = bits[trial];
      cod.dev.setConfigBit(bit, !cod.dev.image().get(bit));

      const bool seen = corruptionObservable(cod.dev, cod.c, rng.next());
      const ConfiguredCheck chk = checkConfigured(cod.dev, cod.c);
      if (seen) {
        ++observable;
        ++observableHere;
        ASSERT_FALSE(chk.ok())
            << name << ": observable LUT flip at config bit " << bit
            << " escaped the checker (" << chk.result.summary() << ")";
        if (chk.extracted.ok()) {
          expectReplayableCounterexamples(cod.c, chk);
        }
      } else if (chk.ok()) {
        // consistent: neither side saw a functional change
      } else if (chk.extracted.ok()) {
        // Checker is strictly stronger than the sampling oracle: it may
        // catch flips the random trials missed — with a witness.
        expectReplayableCounterexamples(cod.c, chk);
      }

      cod.dev.setConfigBit(bit, !cod.dev.image().get(bit));  // restore
      ASSERT_TRUE(checkConfigured(cod.dev, cod.c).ok());
    }
  }
  // The corpus must actually exercise the detection path, not vacuously
  // pass on unobservable flips.
  EXPECT_GE(observable, 16);
}

TEST(Corruption, RoutingMuxSwapCorpusIsDetected) {
  int exercised = 0;
  for (const char* name : {"ct_counter", "nw_checksum"}) {
    CompiledOnDevice cod = compileNamed(name);
    const RoutingGraph& rrg = cod.dev.rrg();
    const ConfigMap& cfg = cod.dev.configMap();

    // Candidate swaps: a CLB input pin whose active mux edge we turn off
    // while turning on a different incoming edge.
    std::vector<std::pair<RREdgeId, RREdgeId>> swaps;
    for (const Elaboration::Cell& cell : cod.dev.elaboration().cells) {
      for (std::size_t p = 0; p < cell.inputs.size(); ++p) {
        if (cell.inputs[p].kind == SignalSource::Kind::kUndriven) continue;
        const RRNodeId pin =
            rrg.clbIn(cell.x, cell.y, static_cast<int>(p));
        RREdgeId on = kNoRRNode;
        for (RREdgeId e : rrg.edgesInto(pin)) {
          if (cod.dev.image().get(cfg.edgeBit(e))) on = e;
        }
        if (on == kNoRRNode) continue;
        // Pair the active edge with every alternative; many alternatives
        // carry the *same* net on a sibling wire segment (functionally
        // silent swaps), so the corpus walks candidates until it has
        // accumulated enough observable ones.
        for (RREdgeId e : rrg.edgesInto(pin)) {
          if (e != on) swaps.push_back({on, e});
        }
      }
    }
    ASSERT_FALSE(swaps.empty());

    Rng rng(0x5a5a);
    int exercisedHere = 0;
    for (std::size_t trial = 0; trial < swaps.size() && exercisedHere < 4;
         ++trial) {
      const auto [on, off] = swaps[trial];
      cod.dev.setConfigBit(cfg.edgeBit(on), false);
      cod.dev.setConfigBit(cfg.edgeBit(off), true);

      const bool seen = corruptionObservable(cod.dev, cod.c, rng.next());
      const ConfiguredCheck chk = checkConfigured(cod.dev, cod.c);
      if (seen) {
        ++exercised;
        ++exercisedHere;
        EXPECT_FALSE(chk.ok())
            << name << ": observable mux swap escaped the checker ("
            << chk.result.summary() << ")";
        if (chk.extracted.ok()) {
          expectReplayableCounterexamples(cod.c, chk);
        }
      }

      cod.dev.setConfigBit(cfg.edgeBit(on), true);
      cod.dev.setConfigBit(cfg.edgeBit(off), false);
      ASSERT_TRUE(checkConfigured(cod.dev, cod.c).ok());
    }
  }
  EXPECT_GE(exercised, 6);
}

TEST(Corruption, CorruptedRelocatedStripIsDetected) {
  CompiledOnDevice cod = compileNamed("ct_counter");
  Device dev2 = mediumPartialProfile().makeDevice();
  Compiler compiler2(dev2);
  const std::uint16_t newX0 =
      static_cast<std::uint16_t>(dev2.geometry().cols - cod.c.region.w);
  const CompiledCircuit moved = compiler2.relocate(cod.c, newX0);
  dev2.applyBitstream(moved.fullBitstream());
  ASSERT_TRUE(checkConfigured(dev2, moved).ok());

  // Corrupt inside the *relocated* strip and require detection there.
  const std::vector<std::uint32_t> bits = meaningfulLutBits(dev2);
  Rng rng(0xfeed);
  int detected = 0, seen = 0;
  for (std::size_t trial = 0; trial < bits.size() && seen < 4; ++trial) {
    const std::uint32_t bit = bits[trial];
    dev2.setConfigBit(bit, !dev2.image().get(bit));
    if (corruptionObservable(dev2, moved, rng.next())) {
      ++seen;
      const ConfiguredCheck chk = checkConfigured(dev2, moved);
      EXPECT_FALSE(chk.ok());
      if (!chk.ok()) ++detected;
      if (chk.extracted.ok()) expectReplayableCounterexamples(moved, chk);
    }
    dev2.setConfigBit(bit, !dev2.image().get(bit));
  }
  EXPECT_GE(seen, 4);
  EXPECT_EQ(detected, seen);
}

// ---- checker internals: residue, state, sequential ------------------------

TEST(Checker, TinyBoundsForceSimulationResidueAndEq004) {
  // Shrink the exhaustive bound and BDD budget until wide cones can only
  // be simulated: the verdict must degrade to "not fully proven" (EQ004
  // warning), never to a spurious inequivalence.
  CompiledOnDevice cod = compileNamed("nw_checksum");
  analysis::equiv::EquivOptions opt;
  opt.coneInputBound = 2;
  opt.bddNodeLimit = 1;  // clamps to the floor; real cones overflow it
  const workloads::AppCircuit app = workloads::appCircuitByName("nw_checksum");
  const ConfiguredCheck chk =
      checkConfiguredAgainst(cod.dev, cod.c, app.netlist, opt);
  ASSERT_TRUE(chk.extracted.ok());
  EXPECT_TRUE(chk.result.equivalent) << chk.result.summary();
  EXPECT_FALSE(chk.result.fullyProven);
  EXPECT_GT(chk.result.conesRandomSim, 0u);

  analysis::Report rep;
  analysis::equiv::lintEquivalence(chk, "nw_checksum", rep);
  EXPECT_EQ(rep.errorCount(), 0u);
  EXPECT_GT(rep.warningCount(), 0u);  // EQ004
}

TEST(Checker, DivergingInitialStateIsSequentialMismatch) {
  CompiledOnDevice cod = compileNamed("ct_counter");
  const Netlist golden = mappedToNetlist(cod.c.mapped, "g");
  MappedNetlist tampered = cod.c.mapped;
  for (auto& cell : tampered.cells) {
    if (cell.hasFf) {
      cell.ffInit = !cell.ffInit;
      break;
    }
  }
  const Netlist revised = mappedToNetlist(tampered, "r");
  // Pin the identity register correspondence (as checkConfigured does via
  // CLB sites) so the divergence surfaces as a matched-pair state
  // mismatch rather than as unmatched residue.
  analysis::equiv::EquivOptions opt;
  for (std::uint32_t k = 0; k < golden.dffs().size(); ++k) {
    opt.pinnedFfPairs.emplace_back(k, k);
  }
  const auto res = analysis::equiv::checkEquivalence(golden, revised, opt);
  EXPECT_FALSE(res.equivalent);
  EXPECT_FALSE(res.stateMismatches.empty());
}

TEST(Checker, UnmatchedRegisterResidueFindsSequentialCounterexample) {
  // golden: out = dff(in); revised: out = dff(dff(in)) — the extra
  // pipeline stage cannot be matched, the whole endpoint is residue, and
  // only the lockstep oracle can (and must) find the off-by-one-cycle
  // divergence, as a replayable input trace.
  Netlist golden("one_stage");
  {
    const GateId in = golden.addInput("in");
    golden.addOutput("out", golden.addDff(in));
  }
  Netlist revised("two_stage");
  {
    const GateId in = revised.addInput("in");
    revised.addOutput("out", revised.addDff(revised.addDff(in)));
  }
  const auto res = analysis::equiv::checkEquivalence(golden, revised);
  EXPECT_FALSE(res.equivalent);
  ASSERT_FALSE(res.counterexamples.empty());
  EXPECT_TRUE(res.counterexamples[0].sequential);
  EXPECT_TRUE(replayCounterexample(golden, revised, res.counterexamples[0]))
      << res.counterexamples[0].render();
}

// ---- word-wide exhaustive rung ---------------------------------------------

/// Adds inputs x0..x{k-1}. They are the only cuts of a combinational
/// netlist, so input i is support position i: assignment j sets x_i to
/// bit i of j.
std::vector<GateId> addInputs(Netlist& nl, std::uint32_t k) {
  std::vector<GateId> ins;
  for (std::uint32_t i = 0; i < k; ++i) {
    ins.push_back(nl.addInput("x" + std::to_string(i)));
  }
  return ins;
}

/// XOR of `ins` as a left-folded chain (constant 0 for no inputs).
GateId parity(Netlist& nl, const std::vector<GateId>& ins) {
  if (ins.empty()) return nl.constant(false);
  GateId acc = ins[0];
  for (std::size_t i = 1; i < ins.size(); ++i) {
    acc = nl.addGate(GateKind::kXor, {acc, ins[i]});
  }
  return acc;
}

/// 1 exactly on the assignments j in `planted`.
GateId minterms(Netlist& nl, const std::vector<GateId>& ins,
                const std::vector<std::uint64_t>& planted) {
  GateId any = nl.constant(false);
  for (std::uint64_t j : planted) {
    GateId term = nl.constant(true);
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const GateId lit = ((j >> i) & 1u) != 0
                             ? ins[i]
                             : nl.addGate(GateKind::kNot, {ins[i]});
      term = nl.addGate(GateKind::kAnd, {term, lit});
    }
    any = nl.addGate(GateKind::kOr, {any, term});
  }
  return any;
}

/// golden: out = parity(x). revised: the same function built differently
/// (x0 doubly inverted, or NOT(1) for no inputs) so the structural pass
/// cannot prove it, XORed with a detector of the `planted` assignments.
std::pair<Netlist, Netlist> parityPair(
    std::uint32_t k, const std::vector<std::uint64_t>& planted) {
  Netlist golden("parity");
  golden.addOutput("out", parity(golden, addInputs(golden, k)));
  Netlist revised("parity_planted");
  std::vector<GateId> ins = addInputs(revised, k);
  std::vector<GateId> chain = ins;
  GateId out = 0;
  if (k == 0) {
    out = revised.addGate(GateKind::kNot, {revised.constant(true)});
  } else {
    chain[0] = revised.addGate(
        GateKind::kNot, {revised.addGate(GateKind::kNot, {ins[0]})});
    out = parity(revised, chain);
  }
  if (!planted.empty()) {
    out = revised.addGate(GateKind::kXor,
                          {out, minterms(revised, ins, planted)});
  }
  revised.addOutput("out", out);
  return {std::move(golden), std::move(revised)};
}

/// The assignment index a combinational counterexample over x0..x{k-1}
/// encodes.
std::uint64_t assignmentOf(const analysis::equiv::Counterexample& cx) {
  std::uint64_t j = 0;
  for (const auto& [name, v] : cx.inputs) {
    if (v) j |= std::uint64_t{1} << std::stoul(name.substr(1));
  }
  return j;
}

TEST(ExhaustiveRung, EnumeratesEveryAssignmentOfEquivalentCones) {
  for (std::uint32_t k : {0u, 1u, 5u, 6u, 7u, 16u}) {
    const auto [golden, revised] = parityPair(k, {});
    const auto res = analysis::equiv::checkEquivalence(golden, revised);
    EXPECT_TRUE(res.equivalent) << "k=" << k << ": " << res.summary();
    EXPECT_TRUE(res.fullyProven) << "k=" << k;
    EXPECT_EQ(res.conesExhaustive, 1u) << "k=" << k;
    EXPECT_EQ(res.exhaustiveVectors, std::uint64_t{1} << k) << "k=" << k;
    ASSERT_EQ(res.proofs.size(), 1u);
    EXPECT_EQ(res.proofs[0].supportSize, k);
  }
}

TEST(ExhaustiveRung, PlantedMismatchYieldsLowestReplayableAssignment) {
  struct Case {
    std::uint32_t k;
    std::vector<std::uint64_t> planted;  ///< lowest first
  };
  const std::vector<Case> cases = {
      {0, {0}},
      {1, {1}},
      {5, {31}},              // j = 2^k - 1 inside a masked word
      {6, {63}},              // lane 63, and j = 2^k - 1
      {7, {63, 64, 127}},     // lane 63 of the first word
      {7, {64, 127}},         // first lane of the second word
      {7, {127}},             // j = 2^k - 1
      {16, {63, 40000}},      // lane 63 ahead of a later word
      {16, {64, 65535}},      // first lane of the second word
      {16, {65535}},          // j = 2^k - 1, the last of 1024 words
  };
  for (const Case& c : cases) {
    const auto [golden, revised] = parityPair(c.k, c.planted);
    const auto res = analysis::equiv::checkEquivalence(golden, revised);
    const std::string where = "k=" + std::to_string(c.k) + " lowest j=" +
                              std::to_string(c.planted[0]);
    EXPECT_FALSE(res.equivalent) << where;
    EXPECT_EQ(res.conesExhaustive, 1u) << where;
    EXPECT_EQ(res.exhaustiveVectors, std::uint64_t{1} << c.k) << where;
    ASSERT_EQ(res.counterexamples.size(), 1u) << where;
    const auto& cx = res.counterexamples[0];
    EXPECT_FALSE(cx.sequential) << where;
    EXPECT_EQ(cx.inputs.size(), c.k) << where;
    EXPECT_EQ(assignmentOf(cx), c.planted[0]) << where << ": " << cx.render();
    EXPECT_EQ(cx.goldenValue, std::popcount(c.planted[0]) % 2 == 1) << where;
    EXPECT_TRUE(replayCounterexample(golden, revised, cx))
        << where << ": " << cx.render();
  }
}

TEST(ExhaustiveRung, BoundPast63CutsFallsToBddInsteadOfFalseProof) {
  // 64 cuts cannot be enumerated with a 64-bit assignment counter: the
  // bound clamps to 63 and the cone goes to the BDD rung, which finds the
  // single differing assignment (all ones).
  Netlist golden("and64");
  Netlist revised("and64_last_inverted");
  {
    const std::vector<GateId> ins = addInputs(golden, 64);
    GateId acc = ins[0];
    for (std::size_t i = 1; i < ins.size(); ++i) {
      acc = golden.addGate(GateKind::kAnd, {acc, ins[i]});
    }
    golden.addOutput("out", acc);
  }
  {
    const std::vector<GateId> ins = addInputs(revised, 64);
    GateId acc = ins[0];
    for (std::size_t i = 1; i + 1 < ins.size(); ++i) {
      acc = revised.addGate(GateKind::kAnd, {acc, ins[i]});
    }
    acc = revised.addGate(
        GateKind::kAnd, {acc, revised.addGate(GateKind::kNot, {ins[63]})});
    revised.addOutput("out", acc);
  }
  analysis::equiv::EquivOptions opt;
  opt.coneInputBound = 64;
  const auto res = analysis::equiv::checkEquivalence(golden, revised, opt);
  EXPECT_FALSE(res.equivalent) << res.summary();
  EXPECT_EQ(res.conesExhaustive, 0u);
  EXPECT_EQ(res.exhaustiveVectors, 0u);
  EXPECT_EQ(res.conesBdd, 1u);
  ASSERT_EQ(res.counterexamples.size(), 1u) << res.summary();
  EXPECT_TRUE(replayCounterexample(golden, revised, res.counterexamples[0]))
      << res.counterexamples[0].render();
}

// ---- invariant form --------------------------------------------------------

TEST(VerifyConfigured, PassesCleanThrowsOnCorruption) {
  CompiledOnDevice cod = compileNamed("ct_gray");
  EXPECT_NO_THROW(
      analysis::equiv::verifyConfiguredOrThrow(cod.dev, cod.c, "test"));

  // Flip meaningful LUT bits until the oracle sees the corruption, then
  // the invariant form must throw.
  const std::vector<std::uint32_t> bits = meaningfulLutBits(cod.dev);
  Rng rng(3);
  for (int trial = 0; trial < 32; ++trial) {
    const std::uint32_t bit =
        bits[static_cast<std::size_t>(rng.below(bits.size()))];
    cod.dev.setConfigBit(bit, !cod.dev.image().get(bit));
    if (corruptionObservable(cod.dev, cod.c, rng.next())) {
      EXPECT_THROW(
          analysis::equiv::verifyConfiguredOrThrow(cod.dev, cod.c, "test"),
          analysis::InvariantViolation);
      return;
    }
    cod.dev.setConfigBit(bit, !cod.dev.image().get(bit));
  }
  FAIL() << "no observable corruption found in 32 trials";
}

// ---- timing lint -----------------------------------------------------------

TEST(TimingLint, CleanCircuitMeetsFamilyConstraints) {
  CompiledOnDevice cod = compileNamed("ct_counter");
  analysis::Report rep;
  const TimingAnalysis ta = analysis::lintTiming(
      cod.dev, analysis::constraintsFor(mediumPartialProfile()), rep);
  EXPECT_EQ(ta.status, TimingStatus::kOk);
  EXPECT_TRUE(rep.clean()) << rep.renderText();
}

TEST(TimingLint, ImpossibleClockYieldsNegativeSlack) {
  CompiledOnDevice cod = compileNamed("ct_counter");
  analysis::TimingConstraints tight;
  tight.clockPeriod = 1;  // ns: nothing on this fabric can meet that
  analysis::Report rep;
  analysis::lintTiming(cod.dev, tight, rep);
  EXPECT_GT(rep.errorCount(), 0u);
  bool sawTa001 = false;
  for (const auto& d : rep.diagnostics()) sawTa001 |= d.rule == "TA001";
  EXPECT_TRUE(sawTa001);
}

TEST(TimingLint, FaultedConfigurationIsTa006NotSilence) {
  Device dev = mediumPartialProfile().makeDevice();
  const ConfigMap& cfg = dev.configMap();
  // An enabled output pad with no driver is a configuration fault.
  dev.setConfigBit(cfg.padSlotEnableBit(0), true);
  dev.setConfigBit(cfg.padSlotOutputBit(0), true);
  ASSERT_FALSE(dev.configOk());

  analysis::Report rep;
  const TimingAnalysis ta = analysis::lintTiming(
      dev, analysis::constraintsFor(mediumPartialProfile()), rep);
  EXPECT_EQ(ta.status, TimingStatus::kConfigFaulted);
  EXPECT_GT(rep.errorCount(), 0u);
  bool sawTa006 = false;
  for (const auto& d : rep.diagnostics()) sawTa006 |= d.rule == "TA006";
  EXPECT_TRUE(sawTa006);
}

}  // namespace
}  // namespace vfpga
