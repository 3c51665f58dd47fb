// Property-based OS-kernel tests: randomly generated task sets must run to
// completion under every policy, with accounting invariants intact and
// every cycle of work conserved, and every run must be bit-deterministic.
// A second suite adds services and fault plans (hangs, strip failures and
// heals, scrub, a checkpoint cadence) and checks the kernel's invariants
// after every event.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "core/os_kernel.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"
#include "workloads/taskset.hpp"

namespace vfpga {
namespace {

struct KernelRun {
  OsMetrics metrics;
  std::vector<SimTime> finishTimes;
};

/// Work conservation: a finished task that was never rolled back and never
/// hung ran exactly the cycles its program asks of the fabric — no slice,
/// resume, relocation, migration or checkpoint lost or repeated any.
void expectWorkConserved(const OsKernel& kernel) {
  const bool fabric = kernel.options().policy != FpgaPolicy::kSoftwareOnly;
  for (const TaskRuntime& t : kernel.tasks()) {
    if (!t.done() || t.rollbacks > 0 || t.watchdogTrips > 0) continue;
    EXPECT_EQ(t.cyclesExecuted, fabric ? totalFpgaCycles(t.spec) : 0u)
        << t.spec.name;
  }
}

KernelRun runRandomWorkload(FpgaPolicy policy, std::uint64_t seed) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  ConfigPort port(dev, prof.port);
  Compiler compiler(dev);
  Simulation sim;
  OsOptions opt;
  opt.policy = policy;
  if (policy == FpgaPolicy::kPartitionedFixed) opt.fixedWidths = {4, 4, 4};
  if (policy == FpgaPolicy::kDynamicLoading) {
    opt.fpgaSlice = (seed % 2) ? millis(1) : SimDuration{0};
    opt.saveStateOnPreempt = (seed % 3) != 0;
  }
  OsKernel kernel(sim, dev, port, compiler, opt);

  std::vector<ConfigId> cfgs;
  for (int i = 0; i < 3; ++i) {
    Netlist nl = (i == 0)   ? lib::makeCounter(6)
                 : (i == 1) ? lib::makeChecksum(6)
                            : lib::makeLfsr(8, 0b10111000);
    nl.setName("c" + std::to_string(i));
    cfgs.push_back(kernel.registerConfig(compiler.compile(
        nl, Region::columns(dev.geometry(), 0, 4))));
  }

  Rng rng(seed);
  workloads::TaskSetParams params;
  params.numTasks = 4 + rng.below(8);
  params.numConfigs = 3;
  params.execsPerTask = 1 + rng.below(3);
  params.minCycles = 1000;
  params.maxCycles = 200000;
  params.meanArrivalGapMs = 0.2 + rng.uniform();
  params.meanCpuBurstMs = 0.05 + rng.uniform() * 0.3;
  params.configZipf = rng.uniform() * 1.5;
  params.oneConfigPerTask = rng.bernoulli(0.5);
  for (auto& spec : workloads::makeTaskSet(params, rng)) {
    kernel.addTask(spec);
  }
  kernel.run();
  expectWorkConserved(kernel);

  KernelRun result;
  result.metrics = kernel.metrics();
  for (const TaskRuntime& t : kernel.tasks()) {
    result.finishTimes.push_back(t.finish);
  }
  // Device must be left in a decodable state under every policy.
  EXPECT_TRUE(dev.configOk()) << dev.elaboration().faults.front();
  return result;
}

class KernelFuzz
    : public ::testing::TestWithParam<std::tuple<FpgaPolicy, std::uint64_t>> {
};

TEST_P(KernelFuzz, InvariantsHoldOnRandomWorkloads) {
  const auto [policy, seed] = GetParam();
  const KernelRun run = runRandomWorkload(policy, seed);
  const OsMetrics& m = run.metrics;

  // Every task finished; makespan is the latest finish.
  EXPECT_EQ(m.tasksFinished, run.finishTimes.size());
  SimTime latest = 0;
  for (SimTime f : run.finishTimes) latest = std::max(latest, f);
  EXPECT_EQ(m.makespan, latest);

  // Accounting identities.
  EXPECT_EQ(m.waitTime.count(), m.tasksFinished);
  EXPECT_EQ(m.turnaround.count(), m.tasksFinished);
  EXPECT_GE(m.turnaround.max(), m.waitTime.min());
  if (policy == FpgaPolicy::kSoftwareOnly) {
    EXPECT_EQ(m.downloads, 0u);
    EXPECT_EQ(m.fpgaComputeTime, 0u);
  } else {
    EXPECT_GT(m.fpgaGrants, 0u);
    // Compute cannot exceed makespan times the concurrency bound.
    const std::uint64_t maxConcurrent =
        (policy == FpgaPolicy::kPartitionedFixed ||
         policy == FpgaPolicy::kPartitionedVariable)
            ? 3u  // 12 columns / 4-wide circuits
            : 1u;
    EXPECT_LE(m.fpgaComputeTime, m.makespan * maxConcurrent);
    EXPECT_LE(m.configTime, m.makespan);
  }
  // Roll-backs only exist in the no-save dynamic regime.
  if (policy != FpgaPolicy::kDynamicLoading) {
    EXPECT_EQ(m.rollbacks, 0u);
  }
}

TEST_P(KernelFuzz, RunsAreBitDeterministic) {
  const auto [policy, seed] = GetParam();
  const KernelRun a = runRandomWorkload(policy, seed);
  const KernelRun b = runRandomWorkload(policy, seed);
  EXPECT_EQ(a.finishTimes, b.finishTimes);
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan);
  EXPECT_EQ(a.metrics.downloads, b.metrics.downloads);
  EXPECT_EQ(a.metrics.bitsDownloaded, b.metrics.bitsDownloaded);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, KernelFuzz,
    ::testing::Combine(
        ::testing::Values(FpgaPolicy::kSoftwareOnly, FpgaPolicy::kExclusive,
                          FpgaPolicy::kDynamicLoading,
                          FpgaPolicy::kPartitionedFixed,
                          FpgaPolicy::kPartitionedVariable),
        ::testing::Values(1, 2, 3, 4)),
    [](const auto& info) {
      return std::string(fpgaPolicyName(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

struct FaultyRun {
  std::vector<SimTime> finishTimes;
  std::uint64_t watchdogPreempts = 0;
  std::uint64_t quarantinedStrips = 0;
};

/// A random task set with a random fault plan, stepped one event at a
/// time with checkInvariants() after each. Partitioned policies also run
/// a service that some executions call.
FaultyRun runFaultyWorkload(FpgaPolicy policy, std::uint64_t seed) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  ConfigPort port(dev, prof.port);
  Compiler compiler(dev);
  Simulation sim;
  Rng rng(seed * 7919 + 1);

  fault::FaultPlanSpec spec;
  spec.seed = seed;
  spec.downloadCorruptRate = rng.uniform() * 0.2;
  spec.stateCorruptRate = rng.uniform() * 0.2;
  spec.meanUpsetsPerScrub = rng.uniform();
  spec.execHangRate = rng.uniform() * 0.2;
  for (int i = 0; i < 2; ++i) {
    fault::StripFailureEvent ev;
    ev.at = micros(100 + rng.below(3000));
    ev.column = static_cast<std::uint16_t>(rng.below(12));
    if (rng.bernoulli(0.5)) ev.healAfter = micros(200 + rng.below(2000));
    spec.stripFailures.push_back(ev);
  }
  fault::FaultPlan plan(spec);

  OsOptions opt;
  opt.policy = policy;
  if (policy == FpgaPolicy::kPartitionedFixed) opt.fixedWidths = {4, 4, 4};
  if (policy == FpgaPolicy::kDynamicLoading) opt.fpgaSlice = millis(1);
  opt.ft.plan = &plan;
  opt.ft.scrubInterval = micros(200 + rng.below(400));
  opt.ft.watchdogFactor = 3.0;
  opt.ft.watchdogTripLimit = 3;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("vfpga_kernel_fuzz_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  opt.ft.checkpointDir = dir.string();
  opt.ft.checkpointInterval = micros(150 + rng.below(300));
  OsKernel kernel(sim, dev, port, compiler, opt);
  kernel.flightRecorder().options().directory = dir.string();

  // The init-1 lfsr's installs and resumes charge a writeback; the last
  // circuit serves partitioned policies as a service.
  std::vector<ConfigId> cfgs;
  for (Netlist nl : {lib::makeCounter(6), lib::makeChecksum(6),
                     lib::makeLfsr(8, 0b10111000), lib::makeCounter(6),
                     lib::makeChecksum(6)}) {
    nl.setName("c" + std::to_string(cfgs.size()));
    cfgs.push_back(kernel.registerConfig(compiler.compile(
        nl, Region::columns(dev.geometry(), 0, 4))));
  }
  const bool partitioned = policy == FpgaPolicy::kPartitionedFixed ||
                           policy == FpgaPolicy::kPartitionedVariable;
  if (partitioned) kernel.installService(cfgs.back());

  workloads::TaskSetParams params;
  params.numTasks = 6 + rng.below(6);
  params.numConfigs = partitioned ? 5 : 4;
  params.execsPerTask = 1 + rng.below(3);
  params.minCycles = 1000;
  params.maxCycles = 300000;
  params.meanArrivalGapMs = 0.1 + rng.uniform() * 0.5;
  params.meanCpuBurstMs = 0.05 + rng.uniform() * 0.2;
  for (auto& s : workloads::makeTaskSet(params, rng)) kernel.addTask(s);

  kernel.start();
  while (sim.step()) {
    kernel.checkInvariants();
    // A task that can never be served keeps the periodic ticks going.
    if (sim.now() > millis(5000)) {
      ADD_FAILURE() << "the simulation never drains";
      return {};
    }
  }
  kernel.finalize();
  std::filesystem::remove_all(dir);
  expectWorkConserved(kernel);

  FaultyRun run;
  for (const TaskRuntime& t : kernel.tasks()) {
    EXPECT_TRUE(t.state == TaskState::kDone || t.state == TaskState::kParked)
        << t.spec.name << " " << taskStateName(t.state);
    run.finishTimes.push_back(t.finish);
  }
  run.watchdogPreempts = kernel.healthInputs().watchdogPreempts;
  run.quarantinedStrips = kernel.healthInputs().quarantinedStrips;
  EXPECT_TRUE(dev.configOk()) << dev.elaboration().faults.front();
  return run;
}

class FaultyKernelFuzz
    : public ::testing::TestWithParam<std::tuple<FpgaPolicy, std::uint64_t>> {
};

TEST_P(FaultyKernelFuzz, InvariantsHoldAfterEveryEvent) {
  const auto [policy, seed] = GetParam();
  const FaultyRun a = runFaultyWorkload(policy, seed);
  const FaultyRun b = runFaultyWorkload(policy, seed);
  EXPECT_EQ(a.finishTimes, b.finishTimes);
  EXPECT_EQ(a.watchdogPreempts, b.watchdogPreempts);
  EXPECT_EQ(a.quarantinedStrips, b.quarantinedStrips);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, FaultyKernelFuzz,
    ::testing::Combine(
        ::testing::Values(FpgaPolicy::kExclusive, FpgaPolicy::kDynamicLoading,
                          FpgaPolicy::kPartitionedFixed,
                          FpgaPolicy::kPartitionedVariable),
        ::testing::Values(1, 2, 3, 4, 5, 6)),
    [](const auto& info) {
      return std::string(fpgaPolicyName(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace vfpga
