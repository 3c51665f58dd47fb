// Compiled fast path tests: differential fuzz of the levelized engine and
// the 64-wide batch evaluator against the interpretive Device walk
// (lockstep over the full circuit library, post-relocation, post-scrub-
// repair, post-migration-resume and on seeded-corruption images), the
// mandatory-invalidation contract on every reconfiguration path, the
// probe/tamper fallback matrix, kernel-cache sharing, thread-count
// determinism of the DevicePool parallel replay, and the CP lint rules.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/compiled_lint.hpp"
#include "cluster/device_pool.hpp"
#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "fabric/config_port.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/coding.hpp"
#include "sim/compiled/batch.hpp"
#include "sim/compiled/compiled_fabric.hpp"
#include "sim/compiled/oracle.hpp"
#include "sim/rng.hpp"
#include "workloads/app_circuits.hpp"
#include "workloads/compile_suite.hpp"

namespace vfpga {
namespace {

using compiled::BatchEvaluator;
using compiled::CompiledFabric;
using compiled::CompiledKernelCache;
using compiled::OracleOptions;
using compiled::OracleReport;
using compiled::runDifferentialOracle;

struct CompiledOnDevice {
  Device dev;
  CompiledCircuit c;
};

CompiledOnDevice compileNamed(const std::string& name,
                              std::uint64_t seed = 1) {
  const workloads::AppCircuit app = workloads::appCircuitByName(name);
  CompiledOnDevice r{mediumPartialProfile().makeDevice(), {}};
  Compiler compiler(r.dev);
  r.c = workloads::compileMinimal(compiler, app.netlist, seed);
  r.dev.applyBitstream(r.c.fullBitstream());
  return r;
}

/// Config bits whose flip changes the configured function (reachable LUT
/// table entries) — the corruption corpus generator.
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

std::string problemText(const OracleReport& rep) {
  std::string s;
  for (const std::string& p : rep.problems) s += p + "; ";
  return s;
}

// ---- differential fuzz: full library lockstep ------------------------------

TEST(Oracle, LibraryLockstepScalarAndBatch) {
  for (const workloads::AppCircuit& app : workloads::allSuites()) {
    CompiledOnDevice cod = compileNamed(app.name);
    OracleOptions opt;
    opt.cycles = 80;  // >= 64 per the campaign contract
    const OracleReport rep = runDifferentialOracle(cod.dev, cod.c, opt);
    EXPECT_TRUE(rep.ok()) << app.name << ": " << problemText(rep);
    EXPECT_TRUE(rep.servedCompiled) << app.name;
    EXPECT_TRUE(rep.extractionOk) << app.name;
    EXPECT_GT(rep.programOps, 0u) << app.name;
  }
}

TEST(Oracle, ReportIsDeterministic) {
  CompiledOnDevice cod = compileNamed("ct_counter");
  const OracleReport a = runDifferentialOracle(cod.dev, cod.c);
  const OracleReport b = runDifferentialOracle(cod.dev, cod.c);
  EXPECT_EQ(a.referenceDigest, b.referenceDigest);
  EXPECT_EQ(a.divergences, b.divergences);
  EXPECT_EQ(a.programOps, b.programOps);
}

TEST(Oracle, PostRelocateLockstep) {
  for (const char* name : {"ct_counter", "tc_crc8", "nw_parity"}) {
    CompiledOnDevice cod = compileNamed(name);
    Device dev2 = mediumPartialProfile().makeDevice();
    Compiler compiler2(dev2);
    const std::uint16_t newX0 =
        static_cast<std::uint16_t>(dev2.geometry().cols - cod.c.region.w);
    const CompiledCircuit moved = compiler2.relocate(cod.c, newX0);
    dev2.applyBitstream(moved.fullBitstream());
    OracleOptions opt;
    opt.cycles = 64;
    const OracleReport rep = runDifferentialOracle(dev2, moved, opt);
    EXPECT_TRUE(rep.ok()) << name << ": " << problemText(rep);
    EXPECT_TRUE(rep.servedCompiled) << name;
  }
}

TEST(Oracle, SeededCorruptionCorpusNeverDiverges) {
  // Compiled and interpretive evaluation must agree on what a corrupted
  // image computes, whatever that is — silent disagreement is the one
  // forbidden outcome. Extraction is not required to succeed here.
  for (const char* name : {"ct_counter", "tc_crc8", "ct_gray"}) {
    CompiledOnDevice cod = compileNamed(name);
    const std::vector<std::uint32_t> bits = meaningfulLutBits(cod.dev);
    ASSERT_FALSE(bits.empty());
    Rng rng(0xfeed ^ std::string_view(name).size());
    for (int trial = 0; trial < 6; ++trial) {
      const std::uint32_t bit = bits[rng.next() % bits.size()];
      cod.dev.setConfigBit(bit, !cod.dev.image().get(bit));
      OracleOptions opt;
      opt.cycles = 64;
      opt.checkExtraction = false;
      const OracleReport rep = runDifferentialOracle(cod.dev, cod.c, opt);
      EXPECT_EQ(rep.divergences, 0u)
          << name << " flip @" << bit << ": " << problemText(rep);
      cod.dev.setConfigBit(bit, !cod.dev.image().get(bit));
    }
  }
}

TEST(Oracle, FaultedConfigurationFallsBackAndStillAgrees) {
  // Crossing two output-pad drivers (or otherwise breaking elaboration)
  // must make the engine decline — both phases then run interpretively and
  // the lockstep still holds.
  CompiledOnDevice cod = compileNamed("ct_counter");
  // Flip arbitrary switch bits until the elaboration faults.
  Rng rng(7);
  const std::uint32_t total = cod.dev.configMap().totalBits();
  for (int i = 0; i < 2000 && cod.dev.configOk(); ++i) {
    const std::uint32_t bit = rng.next() % total;
    cod.dev.setConfigBit(bit, !cod.dev.image().get(bit));
  }
  if (!cod.dev.configOk()) {
    OracleOptions opt;
    opt.cycles = 64;
    opt.checkExtraction = false;
    opt.batch = false;
    const OracleReport rep = runDifferentialOracle(cod.dev, cod.c, opt);
    EXPECT_EQ(rep.divergences, 0u) << problemText(rep);
    EXPECT_FALSE(rep.servedCompiled);
  }
}

// ---- invalidation contract -------------------------------------------------

TEST(Engine, InvalidationOnEveryReconfigurationPath) {
  CompiledOnDevice cod = compileNamed("ct_counter");
  CompiledFabric engine(cod.dev);
  cod.dev.evaluate();
  EXPECT_EQ(engine.stats().builds, 1u);
  EXPECT_EQ(engine.stats().invalidations, 0u);

  // Direct config-bit poke (the scrub-repair / upset write primitive).
  const std::uint32_t bit = meaningfulLutBits(cod.dev).front();
  cod.dev.setConfigBit(bit, !cod.dev.image().get(bit));
  cod.dev.evaluate();
  EXPECT_EQ(engine.stats().invalidations, 1u);
  EXPECT_EQ(engine.stats().builds, 2u);

  // Full download (also the relocate / migration-resume path).
  cod.dev.applyBitstream(cod.c.fullBitstream());
  cod.dev.evaluate();
  EXPECT_EQ(engine.stats().invalidations, 2u);

  // Quarantine blanking.
  cod.dev.clearConfig();
  cod.dev.evaluate();
  EXPECT_EQ(engine.stats().invalidations, 3u);
  EXPECT_EQ(engine.programGeneration(), cod.dev.configGeneration());
}

TEST(Engine, ScrubRepairInvalidatesAndRestoresFunction) {
  CompiledOnDevice cod = compileNamed("ct_counter");
  ConfigPort port(cod.dev, mediumPartialProfile().port);
  port.resyncExpected();
  CompiledFabric engine(cod.dev);
  cod.dev.evaluate();  // prime: resolve the program for the clean image
  OracleOptions opt;
  opt.cycles = 64;
  const std::uint64_t cleanDigest =
      runDifferentialOracle(cod.dev, cod.c, opt).referenceDigest;

  // An upset lands; the scrubber repairs it through the port.
  const std::uint32_t bit = meaningfulLutBits(cod.dev).front();
  cod.dev.setConfigBit(bit, !cod.dev.image().get(bit));
  const ScrubResult sr = port.scrub();
  EXPECT_GE(sr.repairedFrames, 1u);

  const OracleReport rep = runDifferentialOracle(cod.dev, cod.c, opt);
  EXPECT_TRUE(rep.ok()) << problemText(rep);
  EXPECT_EQ(rep.referenceDigest, cleanDigest);
  // The upset and the repair each bumped the generation past the program.
  cod.dev.evaluate();
  EXPECT_GE(engine.stats().invalidations, 1u);
  EXPECT_EQ(engine.programGeneration(), cod.dev.configGeneration());
}

TEST(Engine, MigrationResumeLockstep) {
  // Save state -> quarantine blanking -> resume the relocated circuit on
  // the far strip -> restore state: the compiled path must pick up the new
  // image and the restored registers exactly.
  CompiledOnDevice cod = compileNamed("ct_counter");
  Device ref = mediumPartialProfile().makeDevice();
  ref.applyBitstream(cod.c.fullBitstream());

  CompiledFabric engine(cod.dev);
  LoadedCircuit run(cod.dev, cod.c);
  LoadedCircuit refRun(ref, cod.c);
  run.applyInitialState();
  refRun.applyInitialState();
  for (int i = 0; i < 10; ++i) {
    run.setInput("en", true);
    refRun.setInput("en", true);
    run.evaluate();
    refRun.evaluate();
    run.tick();
    refRun.tick();
  }
  const std::vector<bool> saved = run.saveState();

  cod.dev.clearConfig();  // preempted: strip blanked
  Compiler compiler(cod.dev);
  const std::uint16_t newX0 =
      static_cast<std::uint16_t>(cod.dev.geometry().cols - cod.c.region.w);
  const CompiledCircuit moved = compiler.relocate(cod.c, newX0);
  cod.dev.applyBitstream(moved.fullBitstream());
  LoadedCircuit resumed(cod.dev, moved);
  resumed.restoreState(saved);

  for (int i = 0; i < 64; ++i) {
    resumed.setInput("en", true);
    refRun.setInput("en", true);
    resumed.evaluate();
    refRun.evaluate();
    EXPECT_EQ(resumed.outputBus("q", 8), refRun.outputBus("q", 8)) << i;
    resumed.tick();
    refRun.tick();
  }
  EXPECT_GE(engine.stats().invalidations, 1u);
  EXPECT_GT(engine.stats().compiledEvaluates, 0u);
}

// ---- fallback matrix -------------------------------------------------------

TEST(Engine, ProbeAttachForcesInterpretiveAndCountersAgree) {
  // Two identically configured devices, both probed; one also carries a
  // compiled engine. Probe counters and outputs must be identical — the
  // engine must not serve (and must count fallbacks) while the probe needs
  // per-site activity.
  CompiledOnDevice a = compileNamed("ct_counter");
  CompiledOnDevice b = compileNamed("ct_counter");
  CompiledFabric engine(a.dev);
  ActivityProbe pa, pb;
  a.dev.attachActivityProbe(&pa);
  b.dev.attachActivityProbe(&pb);

  LoadedCircuit la(a.dev, a.c), lb(b.dev, b.c);
  for (int i = 0; i < 32; ++i) {
    la.setInput("en", true);
    lb.setInput("en", true);
    la.evaluate();
    lb.evaluate();
    EXPECT_EQ(la.outputBus("q", 8), lb.outputBus("q", 8)) << i;
    la.tick();
    lb.tick();
  }
  EXPECT_EQ(engine.stats().compiledEvaluates, 0u);
  EXPECT_GT(engine.stats().fallbacks, 0u);
  EXPECT_FALSE(engine.lastServedCompiled());

  const std::vector<ActivitySite> sa = pa.sites();
  const std::vector<ActivitySite> sb = pb.sites();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].evals, sb[i].evals) << "site " << i;
    EXPECT_EQ(sa[i].toggles, sb[i].toggles) << "site " << i;
  }

  // Probe detached: the engine resumes service.
  a.dev.attachActivityProbe(nullptr);
  a.dev.evaluate();
  EXPECT_GT(engine.stats().compiledEvaluates, 0u);
  EXPECT_TRUE(engine.lastServedCompiled());
}

TEST(Engine, TamperHookInhibitsFastPath) {
  CompiledOnDevice cod = compileNamed("ct_counter");
  ConfigPort port(cod.dev, mediumPartialProfile().port);
  CompiledFabric engine(cod.dev);
  cod.dev.evaluate();
  EXPECT_TRUE(engine.lastServedCompiled());

  port.setTamperHook([](const Bitstream&) { return DownloadTamper{}; });
  EXPECT_TRUE(cod.dev.fastPathInhibited());
  cod.dev.evaluate();
  EXPECT_FALSE(engine.lastServedCompiled());
  EXPECT_GT(engine.stats().fallbacks, 0u);

  port.setTamperHook(nullptr);
  EXPECT_FALSE(cod.dev.fastPathInhibited());
  cod.dev.evaluate();
  EXPECT_TRUE(engine.lastServedCompiled());
}

// ---- kernel cache ----------------------------------------------------------

TEST(Engine, CacheSharesProgramsAcrossDevices) {
  CompiledOnDevice a = compileNamed("ct_counter");
  CompiledOnDevice b = compileNamed("ct_counter");
  CompiledKernelCache cache(8);
  CompiledFabric ea(a.dev, &cache);
  CompiledFabric eb(b.dev, &cache);
  a.dev.evaluate();
  b.dev.evaluate();
  EXPECT_EQ(ea.stats().builds, 1u);
  EXPECT_EQ(eb.stats().builds, 0u);
  EXPECT_EQ(eb.stats().hits, 1u);
  EXPECT_EQ(ea.program().get(), eb.program().get());
  EXPECT_EQ(cache.stats().insertions, 1u);

  // A different image is a different key.
  Device blank = mediumPartialProfile().makeDevice();
  CompiledFabric eBlank(blank, &cache);
  blank.evaluate();
  EXPECT_EQ(eBlank.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 2u);
}

// ---- levelizer -------------------------------------------------------------

TEST(Levelize, ScheduleIsDeterministicAndTopological) {
  CompiledOnDevice cod = compileNamed("tc_crc8");
  const auto p1 = compiled::levelizeDevice(cod.dev);
  const auto p2 = compiled::levelizeDevice(cod.dev);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p1->digest, p2->digest);
  ASSERT_EQ(p1->comb.size(), p2->comb.size());
  for (std::size_t i = 0; i < p1->comb.size(); ++i) {
    EXPECT_EQ(p1->comb[i].out, p2->comb[i].out);
    EXPECT_EQ(p1->comb[i].table, p2->comb[i].table);
  }
  EXPECT_GT(p1->levels(), 0u);

  // Every comb op reads only slots produced at lower levels (or FF/pad
  // slots, which are written before level 0 runs).
  std::vector<std::uint32_t> producedAtLevel(p1->tapeSize, 0);
  for (std::size_t lvl = 0; lvl < p1->levels(); ++lvl) {
    for (std::uint32_t i = p1->levelStart[lvl]; i < p1->levelStart[lvl + 1];
         ++i) {
      producedAtLevel[p1->comb[i].out] = static_cast<std::uint32_t>(lvl + 1);
    }
  }
  std::vector<bool> seen(p1->tapeSize, false);
  for (std::size_t lvl = 0; lvl < p1->levels(); ++lvl) {
    for (std::uint32_t i = p1->levelStart[lvl]; i < p1->levelStart[lvl + 1];
         ++i) {
      for (unsigned k = 0; k < p1->lutInputs; ++k) {
        const std::uint32_t src = p1->comb[i].in[k];
        if (producedAtLevel[src] != 0) {
          EXPECT_LE(producedAtLevel[src], lvl) << "op " << i << " input " << k;
        }
      }
      seen[p1->comb[i].out] = true;
    }
  }
}

TEST(Levelize, DeclinesFaultedElaboration) {
  CompiledOnDevice cod = compileNamed("ct_counter");
  Rng rng(11);
  const std::uint32_t total = cod.dev.configMap().totalBits();
  for (int i = 0; i < 2000 && cod.dev.configOk(); ++i) {
    const std::uint32_t bit = rng.next() % total;
    cod.dev.setConfigBit(bit, !cod.dev.image().get(bit));
  }
  if (!cod.dev.configOk()) {
    EXPECT_EQ(compiled::levelizeDevice(cod.dev), nullptr);
  }
}

// ---- batch evaluator -------------------------------------------------------

TEST(Batch, AllLanesIndependent) {
  // Lane i counts iff its enable bit is set: after N cycles lane i's
  // counter must equal N for enabled lanes and 0 for the rest.
  CompiledOnDevice cod = compileNamed("ct_counter");
  const auto program = compiled::levelizeDevice(cod.dev);
  ASSERT_NE(program, nullptr);
  BatchEvaluator be(program);
  const std::uint32_t en = cod.c.padSlotOf("en");
  const std::uint64_t enabled = 0xa5a5a5a5f00f0ff0ull;
  std::vector<std::uint32_t> qSlots;
  for (int b = 0; b < 8; ++b) {
    qSlots.push_back(cod.c.padSlotOf("q" + std::to_string(b)));
  }
  be.resetFfs();
  const int cycles = 13;
  for (int i = 0; i < cycles; ++i) {
    be.setPadInput(en, enabled);
    be.evaluate();
    be.tick();
  }
  be.setPadInput(en, enabled);
  be.evaluate();
  for (unsigned lane = 0; lane < BatchEvaluator::kLanes; ++lane) {
    std::uint64_t q = 0;
    for (int b = 0; b < 8; ++b) {
      q |= ((be.padOutput(qSlots[b]) >> lane) & 1) << b;
    }
    const std::uint64_t want = (enabled >> lane) & 1 ? cycles : 0;
    EXPECT_EQ(q, want) << "lane " << lane;
  }
}

// ---- pool parallel replay --------------------------------------------------

TEST(Pool, ReplayIsByteIdenticalAcrossThreadCountsAndEngines) {
  Simulation sim;
  CircuitStore store;
  std::vector<cluster::DeviceNodeSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "dev" + std::to_string(i);
    specs[i].profile = mediumPartialProfile();
  }
  cluster::DevicePool pool(sim, specs, store);
  Netlist nl = lib::makeSerialCrc(8, 0x07);
  nl.setName("crc8");
  const cluster::WorkloadId w = pool.registerWorkload("crc8", nl, 4);

  cluster::FabricReplaySpec spec;
  spec.workload = w;
  spec.cycles = 3000;
  spec.syncEvery = 512;
  spec.threads = 1;
  const cluster::FabricReplayResult seq = pool.replayFabrics(spec);
  spec.threads = 4;
  const cluster::FabricReplayResult par = pool.replayFabrics(spec);

  ASSERT_EQ(seq.devices.size(), par.devices.size());
  EXPECT_EQ(seq.mergedDigest, par.mergedDigest);
  for (std::size_t d = 0; d < seq.devices.size(); ++d) {
    EXPECT_EQ(seq.devices[d].digest, par.devices[d].digest) << d;
    EXPECT_EQ(seq.devices[d].syncPoints, par.devices[d].syncPoints) << d;
    EXPECT_GT(seq.devices[d].stats.compiledEvaluates, 0u) << d;
  }

  // The compiled replay must equal the interpretive replay bit for bit.
  spec.compiledFastPath = false;
  spec.threads = 2;
  const cluster::FabricReplayResult interp = pool.replayFabrics(spec);
  EXPECT_EQ(interp.mergedDigest, seq.mergedDigest);
  for (std::size_t d = 0; d < interp.devices.size(); ++d) {
    EXPECT_EQ(interp.devices[d].stats.compiledEvaluates, 0u) << d;
  }

  // Kernel-cache reuse: identical images across the pool levelize once.
  EXPECT_GE(pool.kernelCache().stats().hits, 2u);
}

// ---- CP lint rules ---------------------------------------------------------

analysis::CompiledPathProfile healthyProfile() {
  analysis::CompiledPathProfile p;
  p.kernelAttached = true;
  p.programReady = true;
  p.programGeneration = 7;
  p.deviceGeneration = 7;
  p.cacheCapacity = 64;
  return p;
}

TEST(CompiledLint, CleanProfilePasses) {
  analysis::Report rep;
  analysis::lintCompiledPath(healthyProfile(), rep);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.diagnostics().empty());
}

TEST(CompiledLint, StaleGenerationIsCp001) {
  analysis::CompiledPathProfile p = healthyProfile();
  p.deviceGeneration = 9;
  analysis::Report rep;
  analysis::lintCompiledPath(p, rep);
  ASSERT_EQ(rep.diagnostics().size(), 1u);
  EXPECT_EQ(rep.diagnostics()[0].rule, "CP001");
  EXPECT_FALSE(rep.ok());
}

TEST(CompiledLint, ProbeWithCompiledServiceIsCp002) {
  analysis::CompiledPathProfile p = healthyProfile();
  p.probeAttached = true;
  p.lastServedCompiled = true;
  analysis::Report rep;
  analysis::lintCompiledPath(p, rep);
  ASSERT_EQ(rep.diagnostics().size(), 1u);
  EXPECT_EQ(rep.diagnostics()[0].rule, "CP002");
}

TEST(CompiledLint, UnboundedCacheIsCp003Warning) {
  analysis::CompiledPathProfile p = healthyProfile();
  p.cacheCapacity = 0;
  analysis::Report rep;
  analysis::lintCompiledPath(p, rep);
  ASSERT_EQ(rep.diagnostics().size(), 1u);
  EXPECT_EQ(rep.diagnostics()[0].rule, "CP003");
  EXPECT_TRUE(rep.ok());
  // Engines running cache-less are exempt.
  p.noCache = true;
  analysis::Report rep2;
  analysis::lintCompiledPath(p, rep2);
  EXPECT_TRUE(rep2.diagnostics().empty());
}

TEST(CompiledLint, FaultedBuildIsCp004Warning) {
  analysis::CompiledPathProfile p = healthyProfile();
  p.programFaulted = true;
  analysis::Report rep;
  analysis::lintCompiledPath(p, rep);
  ASSERT_EQ(rep.diagnostics().size(), 1u);
  EXPECT_EQ(rep.diagnostics()[0].rule, "CP004");
  EXPECT_TRUE(rep.ok());
}

TEST(CompiledLint, LiveEngineProfileIsClean) {
  CompiledOnDevice cod = compileNamed("ct_counter");
  CompiledKernelCache cache(8);
  CompiledFabric engine(cod.dev, &cache);
  cod.dev.evaluate();
  analysis::CompiledPathProfile p;
  p.kernelAttached = cod.dev.fastPath() != nullptr;
  p.programReady = engine.program() != nullptr;
  p.programGeneration = engine.programGeneration();
  p.deviceGeneration = cod.dev.configGeneration();
  p.probeAttached = cod.dev.activityProbe() != nullptr;
  p.inhibited = cod.dev.fastPathInhibited();
  p.programFaulted = engine.lastBuildFaulted();
  p.lastServedCompiled = engine.lastServedCompiled();
  p.cacheCapacity = cache.capacity();
  analysis::Report rep;
  analysis::lintCompiledPath(p, rep);
  EXPECT_TRUE(rep.diagnostics().empty());

  // ... and a reconfiguration without re-resolution trips CP001.
  cod.dev.clearConfig();
  p.deviceGeneration = cod.dev.configGeneration();
  analysis::Report rep2;
  analysis::lintCompiledPath(p, rep2);
  EXPECT_FALSE(rep2.ok());
}

}  // namespace
}  // namespace vfpga
