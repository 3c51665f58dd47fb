// Cluster-layer tests: the content-keyed circuit store (dedupe, digest
// stability), the device pool's cluster-wide ConfigId guarantee and its
// shared entries, live-migration correctness down at the register level
// (snapshot -> move -> resume must be bit-identical to an uninterrupted
// run, for both a cooperative hand-off and a quarantine-forced
// relocation), the kernel migration ticket, and the cluster scheduler
// (determinism, backpressure, drain, transient-fault failback, post-mortem
// dumps on every node, CL rules).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/cluster_lint.hpp"
#include "analysis/equiv/verify.hpp"
#include "cluster/scheduler.hpp"
#include "core/strip_allocator.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "sim/rng.hpp"

namespace vfpga {
namespace {

Netlist named(Netlist nl, const char* name) {
  nl.setName(name);
  return nl;
}

// ---- CircuitStore ----------------------------------------------------------

TEST(CircuitStore, DigestIsStableAndContentSensitive) {
  const DeviceProfile prof = mediumPartialProfile();
  const Netlist a = named(lib::makeCounter(6), "count");
  const Netlist b = named(lib::makeLfsr(8, 0b10111000), "lfsr");
  const auto digest = [](const Netlist& nl, const DeviceProfile& p,
                         std::uint16_t width, const std::string& name) {
    return cluster::compileDigest(nl, name, p, width);
  };
  const std::uint64_t base = digest(a, prof, 4, "count");

  EXPECT_EQ(base, digest(a, prof, 4, "count"));
  EXPECT_NE(base, digest(b, prof, 4, "count"));
  // Same netlist, different strip width or frame size: distinct identity.
  EXPECT_NE(base, digest(a, prof, 5, "count"));
  DeviceProfile p = prof;
  p.frameBits *= 2;
  EXPECT_NE(base, digest(a, p, 4, "count"));
  // Different fabric geometry: distinct identity.
  EXPECT_NE(base, digest(a, tinyProfile(), 4, "count"));
  p = prof;
  p.geometry.wiresPerChannel += 2;
  EXPECT_NE(base, digest(a, p, 4, "count"));
  // The registered name and the fabric timing (the entry's clock period
  // depends on it) are part of the identity too.
  EXPECT_NE(base, digest(a, prof, 4, "slow"));
  p = prof;
  p.timing.switchDelay += 1;
  EXPECT_NE(base, digest(a, p, 4, "count"));
  // The port is not: a serial part of the same fabric shares the entry.
  EXPECT_EQ(base, digest(a, mediumSerialProfile(), 4, "count"));
}

TEST(CircuitStore, DedupesCompilesAndCountsHits) {
  Device dev = mediumPartialProfile().makeDevice();
  Compiler compiler(dev);
  const Netlist nl = named(lib::makeCounter(6), "count");
  int compiles = 0;
  auto compileFn = [&] {
    ++compiles;
    return compiler.compile(nl, Region::columns(compiler.geometry(), 0, 4));
  };

  CircuitStore store;
  auto c1 = store.getOrCompile(11, dev, compileFn);
  auto c2 = store.getOrCompile(11, dev, compileFn);
  auto c3 = store.getOrCompile(11, dev, compileFn);
  EXPECT_EQ(compiles, 1);
  EXPECT_EQ(c1.get(), c2.get());
  EXPECT_EQ(c2.get(), c3.get());
  EXPECT_EQ(store.stats().compiles, 1u);
  EXPECT_EQ(store.stats().hits, 2u);
  EXPECT_DOUBLE_EQ(store.hitRate(), 2.0 / 3.0);
  // The entry is decoded once, as a private registration would be.
  EXPECT_EQ(c1->clockPeriod(),
            StoredCircuit(c1->circuit(), dev).clockPeriod());
  // Relocations are made once per column and shared by every holder.
  EXPECT_EQ(&c1->placed(6, compiler), &c3->placed(6, compiler));
  EXPECT_EQ(c1->placed(6, compiler).region.x0, 6);
}

// ---- DevicePool ------------------------------------------------------------

TEST(DevicePool, WorkloadIdsAgreeAcrossNodesAndCompileOnce) {
  Simulation sim;
  CircuitStore store;
  std::vector<cluster::DeviceNodeSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "dev" + std::to_string(i);
    specs[i].profile = mediumPartialProfile();
  }
  cluster::DevicePool pool(sim, specs, store);

  const cluster::WorkloadId w0 =
      pool.registerWorkload("count", named(lib::makeCounter(6), "count"), 4);
  const cluster::WorkloadId w1 = pool.registerWorkload(
      "lfsr", named(lib::makeLfsr(8, 0b10111000), "lfsr"), 4);

  EXPECT_EQ(w0, 0u);
  EXPECT_EQ(w1, 1u);
  EXPECT_EQ(pool.workloadWidth(w0), 4);
  EXPECT_EQ(pool.workloadCount(), 2u);
  // 2 workloads x 3 nodes = 6 registrations but only 2 real compiles.
  EXPECT_EQ(store.stats().compiles, 2u);
  EXPECT_EQ(store.stats().hits, 4u);
  for (std::size_t i = 0; i < pool.nodeCount(); ++i) {
    EXPECT_EQ(pool.node(i).kernel().registry().size(), 2u);
    EXPECT_EQ(pool.node(i).usableColumns(), 12);
  }
}

TEST(DevicePool, SameFabricNodesShareOneRelocatedCircuit) {
  Simulation sim;
  CircuitStore store;
  std::vector<cluster::DeviceNodeSpec> specs(2);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "dev" + std::to_string(i);
    specs[i].profile = mediumPartialProfile();
  }
  cluster::DevicePool pool(sim, specs, store);
  const cluster::WorkloadId w =
      pool.registerWorkload("count", named(lib::makeCounter(6), "count"), 4);

  ConfigRegistry& r0 = pool.node(0).kernel().registry();
  ConfigRegistry& r1 = pool.node(1).kernel().registry();
  EXPECT_EQ(&r0.entry(w), &r1.entry(w));
  for (const std::uint16_t x0 : {0, 3, 8}) {
    const CompiledCircuit& on0 = r0.placed(w, x0, pool.node(0).compiler());
    const CompiledCircuit& on1 = r1.placed(w, x0, pool.node(1).compiler());
    EXPECT_EQ(&on0, &on1) << "x0=" << x0;
    EXPECT_EQ(on0.region.x0, x0);
  }
}

TEST(DevicePool, SameNetlistUnderTwoNamesRegistersBoth) {
  Simulation sim;
  CircuitStore store;
  std::vector<cluster::DeviceNodeSpec> specs(2);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "dev" + std::to_string(i);
    specs[i].profile = mediumPartialProfile();
  }
  cluster::DevicePool pool(sim, specs, store);
  const Netlist nl = lib::makeCounter(6);
  const cluster::WorkloadId fast = pool.registerWorkload("fast", nl, 4);
  const cluster::WorkloadId slow = pool.registerWorkload("slow", nl, 4);
  for (std::size_t i = 0; i < pool.nodeCount(); ++i) {
    const ConfigRegistry& reg = pool.node(i).kernel().registry();
    EXPECT_EQ(reg.circuit(fast).name, "fast");
    EXPECT_EQ(reg.circuit(slow).name, "slow");
  }
}

TEST(DevicePool, EachNodeClocksFromItsOwnTiming) {
  Simulation sim;
  CircuitStore store;
  std::vector<cluster::DeviceNodeSpec> specs(2);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "dev" + std::to_string(i);
    specs[i].profile = mediumPartialProfile();
  }
  specs[1].profile.timing.switchDelay *= 3;  // same geometry, slower wires
  cluster::DevicePool pool(sim, specs, store);
  const cluster::WorkloadId w =
      pool.registerWorkload("count", named(lib::makeCounter(6), "count"), 4);

  for (std::size_t i = 0; i < pool.nodeCount(); ++i) {
    cluster::DeviceNode& node = pool.node(i);
    const StoredCircuit own(node.kernel().registry().circuit(w),
                            node.device());
    EXPECT_EQ(node.kernel().clockPeriod(w), own.clockPeriod()) << i;
  }
  EXPECT_GT(pool.node(1).kernel().clockPeriod(w),
            pool.node(0).kernel().clockPeriod(w));
}

// ---- migration correctness (register level) --------------------------------

/// Runs `cycles` enabled-counter cycles on `lc` (en held, clr low).
void clockCounter(LoadedCircuit& lc, int cycles) {
  lc.setInput("en", true);
  lc.setInput("clr", false);
  for (int i = 0; i < cycles; ++i) {
    lc.evaluate();
    lc.tick();
  }
  lc.evaluate();
}

TEST(Migration, SnapshotMoveResumeIsBitIdentical) {
  // Run 23 cycles on device A, migrate the register snapshot to a
  // *different strip* of device B, run 41 more — the result must be
  // bit-identical (outputs and full FF state) to 64 uninterrupted cycles.
  const Netlist nl = named(lib::makeCounter(6), "count");

  Device devA = mediumPartialProfile().makeDevice();
  Compiler compilerA(devA);
  const CompiledCircuit cA =
      compilerA.compile(nl, Region::columns(compilerA.geometry(), 0, 4));
  devA.applyBitstream(cA.fullBitstream());
  ASSERT_TRUE(devA.configOk());
  LoadedCircuit la(devA, cA);
  la.applyInitialState();
  clockCounter(la, 23);
  EXPECT_EQ(la.outputBus("q", 6), 23u);
  const std::vector<bool> snapshot = la.saveState();

  // Target lives at columns 5..8 — state is mapped-order, so it relocates.
  Device devB = mediumPartialProfile().makeDevice();
  Compiler compilerB(devB);
  const CompiledCircuit cB = compilerB.relocate(cA, 5);
  devB.applyBitstream(cB.fullBitstream());
  ASSERT_TRUE(devB.configOk());
  // Equivalence invariant: the destination fabric must provably compute
  // the migrated circuit before any state is restored into it.
  {
    const auto chk = analysis::equiv::checkConfigured(devB, cB);
    ASSERT_TRUE(chk.ok()) << chk.result.summary();
    EXPECT_TRUE(chk.result.fullyProven) << chk.result.summary();
  }
  LoadedCircuit lb(devB, cB);
  lb.restoreState(snapshot);
  clockCounter(lb, 41);

  // Uninterrupted reference on a fresh device.
  Device devR = mediumPartialProfile().makeDevice();
  const CompiledCircuit cR = cA;
  devR.applyBitstream(cR.fullBitstream());
  ASSERT_TRUE(devR.configOk());
  LoadedCircuit lr(devR, cR);
  lr.applyInitialState();
  clockCounter(lr, 64);

  EXPECT_EQ(lb.outputBus("q", 6), lr.outputBus("q", 6));
  EXPECT_EQ(lb.saveState(), lr.saveState());
}

TEST(Migration, QuarantineForcedRelocationIsBitIdentical) {
  // Same bit-identity bar, but the move is *forced*: a column inside the
  // busy strip fails and the partition manager relocates the occupant
  // (state save, blank, relocate, verified download, state restore).
  const Netlist nl = named(lib::makeCounter(6), "count");

  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  ConfigPort port(dev, prof.port);
  Compiler compiler(dev);
  ConfigRegistry registry(dev);
  const ConfigId cfg = registry.add(
      compiler.compile(nl, Region::columns(compiler.geometry(), 0, 4)));
  PartitionManager pm(dev, port, registry, compiler);

  const auto load = pm.load(cfg);
  ASSERT_TRUE(load.has_value());
  {
    LoadedCircuit lc = pm.loaded(load->partition);
    lc.applyInitialState();
    clockCounter(lc, 23);
    EXPECT_EQ(lc.outputBus("q", 6), 23u);
  }

  const auto q = pm.quarantine(1);  // column 1 sits inside the busy strip
  EXPECT_TRUE(q.quarantined);
  EXPECT_TRUE(q.relocated);
  ASSERT_NE(q.movedTo, kNoPartition);

  // Equivalence invariant: the forced relocation left a configuration
  // that still provably computes the compiled circuit.
  {
    const auto chk =
        analysis::equiv::checkConfigured(dev, pm.circuitIn(q.movedTo));
    ASSERT_TRUE(chk.ok()) << chk.result.summary();
    EXPECT_TRUE(chk.result.fullyProven) << chk.result.summary();
  }

  LoadedCircuit moved = pm.loaded(q.movedTo);
  moved.setInput("en", false);
  moved.setInput("clr", false);
  moved.evaluate();
  EXPECT_EQ(moved.outputBus("q", 6), 23u);  // state survived the move
  clockCounter(moved, 41);

  Device devR = mediumPartialProfile().makeDevice();
  Compiler compilerR(devR);
  const CompiledCircuit cR =
      compilerR.compile(nl, Region::columns(compilerR.geometry(), 0, 4));
  devR.applyBitstream(cR.fullBitstream());
  ASSERT_TRUE(devR.configOk());
  LoadedCircuit lr(devR, cR);
  lr.applyInitialState();
  clockCounter(lr, 64);

  EXPECT_EQ(moved.outputBus("q", 6), lr.outputBus("q", 6));
  EXPECT_EQ(moved.saveState(), lr.saveState());
}

// ---- kernel migration ticket ----------------------------------------------

TEST(Migration, ExtractedRunningTaskResumesOnSecondKernel) {
  // With invariant checks on, the destination kernel proves the resumed
  // configuration equivalent right after the migrated state is restored
  // (the OsKernel migration-resume hook); a corrupted move would throw.
  struct ChecksGuard {
    ChecksGuard() { analysis::setInvariantChecks(true); }
    ~ChecksGuard() { analysis::setInvariantChecks(false); }
  } guard;
  Simulation sim;
  DeviceProfile prof = mediumPartialProfile();
  Device devA = prof.makeDevice(), devB = prof.makeDevice();
  ConfigPort portA(devA, prof.port), portB(devB, prof.port);
  Compiler compA(devA), compB(devB);
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  OsKernel a(sim, devA, portA, compA, opt);
  OsKernel b(sim, devB, portB, compB, opt);
  const Netlist nl = named(lib::makeCounter(6), "count");
  const ConfigId cfgA = a.registerConfig(
      compA.compile(nl, Region::columns(compA.geometry(), 0, 4)));
  const ConfigId cfgB = b.registerConfig(
      compB.compile(nl, Region::columns(compB.geometry(), 0, 4)));
  ASSERT_EQ(cfgA, cfgB);

  TaskSpec t;
  t.name = "mig";
  t.ops = {CpuBurst{micros(5)}, FpgaExec{cfgA, 200000}, CpuBurst{micros(5)}};
  a.addTask(t);
  a.start();
  b.start();

  while (a.runningExecCount() == 0) ASSERT_TRUE(sim.step());
  const auto movable = a.migratableTasks();
  ASSERT_EQ(movable.size(), 1u);
  const std::vector<bool> registers =
      LoadedCircuit(devA, a.partitionManager()->circuitIn(
                              a.tasks()[movable[0]].partition))
          .saveState();
  OsKernel::MigrationTicket ticket = a.extractForMigration(movable[0]);
  EXPECT_TRUE(ticket.fromRunning);
  EXPECT_GT(ticket.cost, 0);
  EXPECT_FALSE(registers.empty());
  EXPECT_EQ(ticket.continuation.migratedState, registers);
  EXPECT_EQ(a.tasks()[movable[0]].state, TaskState::kMigrated);
  // The continuation owes at most the original cycles and runs from `now`.
  ASSERT_EQ(ticket.continuation.ops.size(), 2u);
  const auto* fx = std::get_if<FpgaExec>(&ticket.continuation.ops[0]);
  ASSERT_NE(fx, nullptr);
  EXPECT_LE(fx->cycles, 200000u);
  EXPECT_GT(fx->cycles, 0u);

  b.addTask(ticket.continuation);
  while (sim.step()) {
  }
  a.finalize();
  b.finalize();
  ASSERT_EQ(b.tasks().size(), 1u);
  EXPECT_EQ(b.tasks()[0].state, TaskState::kDone);
}

/// Two partitioned kernels, each on its own medium_partial device, with
/// one counter circuit registered on both.
struct KernelPair {
  static OsOptions partitioned() {
    OsOptions opt;
    opt.policy = FpgaPolicy::kPartitionedVariable;
    return opt;
  }

  Simulation sim;
  DeviceProfile prof = mediumPartialProfile();
  Device devA = prof.makeDevice();
  Device devB = prof.makeDevice();
  ConfigPort portA{devA, prof.port};
  ConfigPort portB{devB, prof.port};
  Compiler compA{devA};
  Compiler compB{devB};
  OsKernel a{sim, devA, portA, compA, partitioned()};
  OsKernel b{sim, devB, portB, compB, partitioned()};
  ConfigId cfg = kNoConfig;

  KernelPair() {
    const Netlist nl = named(lib::makeCounter(6), "count");
    cfg = a.registerConfig(
        compA.compile(nl, Region::columns(compA.geometry(), 0, 4)));
    EXPECT_EQ(b.registerConfig(compB.compile(
                  nl, Region::columns(compB.geometry(), 0, 4))),
              cfg);
  }

  /// Task `t` of kernel `k` (on device `dev`), bound to its partition.
  static LoadedCircuit live(Device& dev, const OsKernel& k, std::size_t t) {
    return LoadedCircuit(
        dev, k.partitionManager()->circuitIn(k.tasks()[t].partition));
  }

  /// Starts one long task on kernel a and runs until it computes; then
  /// writes the complement of every other initial register value into its
  /// registers and returns that pattern.
  std::vector<bool> runWithPattern() {
    TaskSpec t;
    t.name = "carry";
    t.ops = {FpgaExec{cfg, 200000}, CpuBurst{micros(5)}};
    a.addTask(t);
    a.start();
    b.start();
    while (a.runningExecCount() == 0) {
      if (!sim.step()) ADD_FAILURE() << "task never ran";
    }
    const CompiledCircuit& c =
        a.partitionManager()->circuitIn(a.tasks()[0].partition);
    std::vector<bool> pattern(c.ffCount());
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = c.initialState[i] != (i % 2 == 0);
      devA.setFfStateAt(c.ffSites[i].x, c.ffSites[i].y, pattern[i]);
    }
    EXPECT_EQ(live(devA, a, 0).saveState(), pattern);
    return pattern;
  }

  /// Runs until kernel b's task 0 holds its first grant; returns its
  /// registers there.
  std::vector<bool> registersAtFirstGrant() {
    while (b.tasks()[0].state != TaskState::kRunningFpga) {
      if (!sim.step()) {
        ADD_FAILURE() << "continuation never ran";
        return {};
      }
    }
    return live(devB, b, 0).saveState();
  }
};

// The destination computes on the registers the source held, not on the
// circuit's initial values: the continuation carries the bits, and the
// first grant writes them back.
TEST(Migration, CarriesTheRegisterBitsToTheDestination) {
  KernelPair k;
  const std::vector<bool> pattern = k.runWithPattern();
  ASSERT_FALSE(pattern.empty());
  const std::uint64_t writesBefore = k.portB.stats().stateWrites;
  OsKernel::MigrationTicket ticket = k.a.extractForMigration(0);
  EXPECT_EQ(ticket.continuation.migratedState, pattern);
  k.b.addTask(std::move(ticket.continuation));
  EXPECT_EQ(k.registersAtFirstGrant(), pattern);
  EXPECT_TRUE(k.b.tasks()[0].spec.migratedState.empty());
  EXPECT_EQ(k.portB.stats().stateWrites, writesBefore + 1);
}

// A checkpoint restored into another kernel resumes from the checkpointed
// registers the same way.
TEST(Migration, RestoredCheckpointCarriesTheRegisterBits) {
  KernelPair k;
  const std::vector<bool> pattern = k.runWithPattern();
  ASSERT_FALSE(pattern.empty());
  const fault::TaskCheckpoint ck = k.a.buildCheckpoint(0, pattern);
  EXPECT_EQ(k.b.restoreTask(ck), 0u);
  EXPECT_EQ(k.registersAtFirstGrant(), pattern);
}

// ---- ClusterScheduler ------------------------------------------------------

struct CampaignConfig {
  std::size_t devices = 3;
  std::size_t jobs = 12;
  cluster::ClusterOptions options;
  std::vector<fault::StripFailureEvent> dev1Failures;
};

struct CampaignRun {
  Simulation sim;
  CircuitStore store;
  std::unique_ptr<cluster::DevicePool> pool;
  std::unique_ptr<cluster::ClusterScheduler> sched;
};

/// Builds one seeded campaign, ready to run.
std::unique_ptr<CampaignRun> buildCampaign(const CampaignConfig& cfg) {
  auto run = std::make_unique<CampaignRun>();
  std::vector<cluster::DeviceNodeSpec> specs(cfg.devices);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "dev" + std::to_string(i);
    specs[i].profile = mediumPartialProfile();
    if (i == 1 && !cfg.dev1Failures.empty()) {
      specs[i].faulty = true;
      specs[i].faultSpec.seed = 99;
      specs[i].faultSpec.stripFailures = cfg.dev1Failures;
    }
  }
  run->pool = std::make_unique<cluster::DevicePool>(run->sim, specs,
                                                    run->store);
  const cluster::WorkloadId w =
      run->pool->registerWorkload("count", named(lib::makeCounter(6), "count"),
                                  4);
  run->sched = std::make_unique<cluster::ClusterScheduler>(
      run->sim, *run->pool, cfg.options);
  Rng rng(5);
  for (std::size_t j = 0; j < cfg.jobs; ++j) {
    cluster::ClusterJobSpec job;
    job.name = "t" + std::to_string(j);
    job.submitAt =
        static_cast<SimTime>(j) * micros(80) + rng.below(micros(40));
    job.priority = static_cast<int>(rng.below(2));
    job.ops = {CpuBurst{micros(10)}, FpgaExec{w, 20000 + 500 * rng.below(8)},
               CpuBurst{micros(5)}};
    run->sched->submit(std::move(job));
  }
  return run;
}

/// Builds + runs one seeded campaign; identical configs must yield
/// byte-identical reports.
std::unique_ptr<CampaignRun> runCampaign(const CampaignConfig& cfg) {
  auto run = buildCampaign(cfg);
  run->sched->run();
  return run;
}

TEST(ClusterScheduler, SameSeedByteIdenticalReports) {
  CampaignConfig cfg;
  cfg.options.maxJobsPerDevice = 2;
  cfg.dev1Failures = {{millis(1), 2}, {millis(2), 9}};
  cfg.options.minUsableColumns = 8;
  auto a = runCampaign(cfg);
  auto b = runCampaign(cfg);
  EXPECT_EQ(a->sched->renderReport(), b->sched->renderReport());
  EXPECT_EQ(a->sched->renderJsonReport(), b->sched->renderJsonReport());
  EXPECT_FALSE(a->sched->renderReport().empty());
}

TEST(ClusterScheduler, BackpressureRejectsBeyondQueueDepth) {
  CampaignConfig cfg;
  cfg.jobs = 16;
  cfg.options.admissionQueueDepth = 2;
  cfg.options.maxJobsPerDevice = 1;
  cfg.devices = 2;
  auto run = runCampaign(cfg);
  const auto& s = run->sched->summary();
  EXPECT_EQ(s.submitted, 16u);
  EXPECT_GT(s.rejected, 0u);
  EXPECT_EQ(s.admitted + s.rejected, s.submitted);
  EXPECT_EQ(s.completed, s.admitted);  // admitted jobs still all finish
  EXPECT_NEAR(s.rejectedFraction,
              static_cast<double>(s.rejected) / s.submitted, 1e-12);
  std::size_t rejectedRows = 0;
  for (const auto& o : run->sched->outcomes()) {
    if (!o.admitted) {
      ++rejectedRows;
      EXPECT_TRUE(o.device.empty());
    }
  }
  EXPECT_EQ(rejectedRows, s.rejected);
}

TEST(ClusterScheduler, DrainsDegradedDeviceAndCompletesEverything) {
  CampaignConfig cfg;
  cfg.options.minUsableColumns = 8;
  cfg.options.maxJobsPerDevice = 2;
  // Two failures shrink dev1's largest span below 8 -> forced evacuation.
  cfg.dev1Failures = {{millis(1), 2}, {millis(2), 9}};
  auto run = runCampaign(cfg);
  const auto& s = run->sched->summary();
  EXPECT_EQ(s.completed, s.admitted);
  EXPECT_EQ(s.parked, 0u);
  EXPECT_GE(s.migrationsDrain, 1u);
  EXPECT_LT(run->pool->node(1).usableColumns(), 8);
  EXPECT_TRUE(s.sloCompletedMet);
}

TEST(ClusterScheduler, TransientFaultHealsAndWorkFlowsBack) {
  CampaignConfig cfg;
  cfg.jobs = 18;
  cfg.options.minUsableColumns = 8;
  cfg.options.maxJobsPerDevice = 2;
  cfg.options.rebalanceGap = 2;
  // dev1 loses column 5 at 1 ms and heals 2 ms later.
  cfg.dev1Failures = {{millis(1), 5, millis(2)}};
  auto run = runCampaign(cfg);
  const auto& s = run->sched->summary();
  EXPECT_EQ(s.completed, s.admitted);
  // Healed: the full fabric is usable again and the heal was counted.
  EXPECT_EQ(run->pool->node(1).usableColumns(), 12);
  const PartitionManager* pm = run->pool->node(1).kernel().partitionManager();
  ASSERT_NE(pm, nullptr);
  EXPECT_EQ(pm->ftStats().stripsHealed, 1u);
  EXPECT_EQ(pm->allocator().quarantinedColumns(), 0);
}

// The nodes share one event loop, so a violation anywhere in the run is
// dumped into every node's own recorder.
TEST(ClusterScheduler, InvariantViolationDumpsEveryNodesRecorder) {
  const std::string dir = ::testing::TempDir() + "/vfpga_cluster_dump";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  setenv("VFPGA_FLIGHT_DIR", dir.c_str(), 1);

  auto run = buildCampaign(CampaignConfig{});
  run->sim.scheduleAt(micros(400), [] {
    analysis::Report rep;
    rep.add("AL002", "seeded zero-width strip");
    analysis::throwIfErrors(rep, "cluster_test seeded event");
  });
  EXPECT_THROW(run->sched->run(), analysis::InvariantViolation);
  for (std::size_t d = 0; d < run->pool->nodeCount(); ++d) {
    const std::string& node = run->pool->node(d).name();
    SCOPED_TRACE(node);
    EXPECT_EQ(run->pool->node(d).kernel().flightRecorder().dumpCount(), 1u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/vfpga_flight_" + node +
                                        "_AL002_0.json"));
  }
  // One bundle per node, none overwritten by another node's.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            static_cast<std::ptrdiff_t>(run->pool->nodeCount()));
}

// ---- transient heal / repair primitives ------------------------------------

TEST(StripAllocator, UnquarantineRestoresSpanAndMerges) {
  StripAllocator alloc(12);
  alloc.quarantineColumn(5);
  EXPECT_EQ(alloc.quarantinedColumns(), 1);
  EXPECT_EQ(alloc.largestUsableSpan(), 6);
  alloc.unquarantineColumn(5);
  EXPECT_EQ(alloc.quarantinedColumns(), 0);
  EXPECT_EQ(alloc.largestUsableSpan(), 12);
  // The table must be fully merged again: one idle strip, allocatable at
  // full width.
  EXPECT_EQ(alloc.strips().size(), 1u);
  EXPECT_TRUE(alloc.allocate(12).has_value());
  // Unquarantining a healthy column is a no-op.
  alloc.unquarantineColumn(3);
  alloc.checkInvariants();
}

TEST(StripAllocator, RepairUnmergedIdleIsIdleOnHealthyTable) {
  StripAllocator alloc(12);
  const auto a = alloc.allocate(4);
  const auto b = alloc.allocate(4);
  ASSERT_TRUE(a && b);
  alloc.release(*a);
  alloc.release(*b);
  // release() keeps the table merged, so the repair pass finds nothing.
  EXPECT_EQ(alloc.repairUnmergedIdle(), 0u);
  EXPECT_EQ(alloc.strips().size(), 1u);
  alloc.checkInvariants();
}

// ---- CL lint rules ---------------------------------------------------------

std::vector<std::string> ruleIds(const analysis::Report& rep) {
  std::vector<std::string> ids;
  for (const auto& d : rep.diagnostics()) ids.push_back(d.rule);
  return ids;
}

TEST(ClusterLint, FlagsEveryMisconfiguration) {
  analysis::ClusterProfile p;
  p.deviceColumns = {12};
  p.workloadWidths = {4, 20};  // 20 fits nowhere -> CL001
  p.admissionQueueDepth = 0;   // CL002
  p.minUsableColumns = 16;     // CL003
  p.rebalanceGap = 1;          // CL005
  p.anyStripFailures = true;   // single faulty device -> CL004
  analysis::Report rep;
  analysis::lintCluster(p, rep);
  const auto ids = ruleIds(rep);
  EXPECT_EQ(ids, (std::vector<std::string>{"CL001", "CL002", "CL003",
                                           "CL004", "CL005"}));
  EXPECT_FALSE(rep.ok());  // CL001-CL003 are errors
}

TEST(ClusterLint, CleanProfilePasses) {
  analysis::ClusterProfile p;
  p.deviceColumns = {12, 12, 12};
  p.workloadWidths = {4, 6};
  p.admissionQueueDepth = 16;
  p.minUsableColumns = 8;
  p.rebalanceGap = 2;
  p.anyStripFailures = true;  // fine: there are migration targets
  analysis::Report rep;
  analysis::lintCluster(p, rep);
  EXPECT_TRUE(rep.diagnostics().empty());
  EXPECT_TRUE(rep.ok());
}

TEST(ClusterLint, RulesAreRegistered) {
  for (const char* id : {"CL001", "CL002", "CL003", "CL004", "CL005"}) {
    const analysis::RuleInfo* info = analysis::findRule(id);
    ASSERT_NE(info, nullptr) << id;
  }
  EXPECT_EQ(analysis::findRule("CL001")->severity,
            analysis::Severity::kError);
  EXPECT_EQ(analysis::findRule("CL004")->severity,
            analysis::Severity::kWarning);
}

}  // namespace
}  // namespace vfpga
