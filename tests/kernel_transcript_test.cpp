// Kernel transcript pins: everything a kernel run shows — the trace, every
// span and instant, the Prometheus rendering of its metrics registry and
// each task's runtime record — folded into one FNV-1a digest per scenario.
// The scenarios cover the five FPGA policies, dynamic loading with and
// without a slice and a state save, a service, a fault plan (download
// corruption, hangs, scrub, strip failures with heal, a checkpoint cadence)
// and a live migration plus a checkpoint restore. A change to the kernel
// that moves one byte of one output fails here; a deliberate change
// re-pins the digest it moves and says why.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string_view>

#include "core/os_kernel.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"
#include "obs/exporters.hpp"
#include "util/hash.hpp"
#include "workloads/taskset.hpp"

namespace vfpga {
namespace {

std::uint64_t foldString(std::uint64_t h, std::string_view s) {
  h = fnv1aU64(h, s.size());
  return fnv1aBytes(h, {reinterpret_cast<const std::uint8_t*>(s.data()),
                        s.size()});
}

std::uint64_t foldAttrs(std::uint64_t h, const obs::AttrList& attrs) {
  h = fnv1aU64(h, attrs.size());
  for (const auto& [key, value] : attrs) {
    h = foldString(foldString(h, key), value);
  }
  return h;
}

/// The digest of one kernel's transcript. Span ids are process-unique
/// (they depend on which tests ran before), so they stay out.
std::uint64_t transcriptDigest(const OsKernel& k) {
  std::uint64_t h = foldString(kFnvOffset, k.trace().render());
  for (const obs::SpanRecord& s : k.spanTracer().spans()) {
    h = foldString(foldString(h, s.name), s.category);
    for (const std::uint64_t v : {s.startNs, s.durationNs,
                                  std::uint64_t{s.track}, s.links.size()}) {
      h = fnv1aU64(h, v);
    }
    h = foldAttrs(h, s.attributes);
  }
  for (const obs::InstantRecord& i : k.spanTracer().instants()) {
    h = foldString(foldString(h, i.name), i.category);
    h = fnv1aU64(fnv1aU64(h, i.atNs), i.track);
    h = foldAttrs(h, i.attributes);
  }
  h = foldString(h, obs::renderPrometheus(k.metricsRegistry()));
  for (const TaskRuntime& t : k.tasks()) {
    h = foldString(h, t.spec.name);
    for (const std::uint64_t v :
         {std::uint64_t{static_cast<std::uint8_t>(t.state)},
          std::uint64_t{t.opIndex}, t.cpuRemaining, t.cyclesRemaining,
          t.fpgaWaitStart, std::uint64_t{t.partition},
          std::uint64_t{t.runToCompletionNext}, t.finish, t.fpgaWaitTotal,
          t.grants, t.preemptions, t.rollbacks, t.watchdogTrips,
          t.cyclesExecuted, t.configBitsWritten, t.downloads, t.configHits,
          t.relocations, t.fpgaExecTotal, t.checkpoints, t.restores,
          t.checkpointedBytes, std::uint64_t{t.spec.migratedState.size()}}) {
      h = fnv1aU64(h, v);
    }
  }
  return h;
}

/// A kernel on its own medium_partial device with three width-4 circuits,
/// plus a width-6 one for compaction and a width-4 one to serve.
struct Rig {
  DeviceProfile profile = mediumPartialProfile();
  Device dev = profile.makeDevice();
  ConfigPort port{dev, profile.port};
  Compiler compiler{dev};
  OsKernel kernel;
  std::vector<ConfigId> configs;

  Rig(Simulation& sim, OsOptions options)
      : kernel(sim, dev, port, compiler, std::move(options)) {
    const auto add = [&](Netlist nl, const char* name, std::uint16_t w) {
      nl.setName(name);
      CompileOptions co;
      co.seed = 11 + configs.size();
      configs.push_back(kernel.registerConfig(compiler.compile(
          nl, Region::columns(dev.geometry(), 0, w), co)));
    };
    add(lib::makeCounter(6), "count", 4);
    add(lib::makeChecksum(6), "csum", 4);
    add(lib::makeLfsr(8, 0b10111000), "lfsr", 4);
    add(lib::makeChecksum(4), "wide", 6);
    add(lib::makeChecksum(6), "driver", 4);
  }
};

/// A seeded task set over the three width-4 circuits, plus (partitioned
/// policies) a few width-6 executions that force compactions.
void addWorkload(Rig& r, std::uint64_t seed, bool wide) {
  Rng rng(seed);
  workloads::TaskSetParams params;
  params.numTasks = 9;
  params.numConfigs = 3;
  params.execsPerTask = 2;
  params.minCycles = 2000;
  params.maxCycles = 120000;
  params.meanArrivalGapMs = 0.4;
  params.meanCpuBurstMs = 0.15;
  std::vector<TaskSpec> specs = workloads::makeTaskSet(params, rng);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].priority = static_cast<int>(i % 3);
    if (wide && i % 3 == 2) {
      specs[i].ops.push_back(FpgaExec{r.configs[3], 30000});
    }
    r.kernel.addTask(specs[i]);
  }
}

/// An empty directory of this process (ctest runs the cases in parallel),
/// removed again with the object.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             ("vfpga_transcript_" + std::to_string(::getpid()) + "_" +
              name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

struct Outcome {
  std::uint64_t digest = 0;
  fault::HealthInputs health;
};

/// Runs one kernel to completion.
Outcome runOne(OsOptions opt, bool wide, bool service = false) {
  Simulation sim;
  Rig r(sim, std::move(opt));
  const ScratchDir flight("flight");
  r.kernel.flightRecorder().options().directory = flight.path.string();
  if (service) {
    r.kernel.installService(r.configs[4]);
    for (int i = 0; i < 4; ++i) {
      TaskSpec s;
      s.name = "drv" + std::to_string(i);
      s.arrival = micros(150) * i;
      s.ops = {CpuBurst{micros(20)}, FpgaExec{r.configs[4], 40000},
               CpuBurst{micros(10)}, FpgaExec{r.configs[4], 15000}};
      r.kernel.addTask(s);
    }
  }
  addWorkload(r, 17, wide);
  r.kernel.run();
  return {transcriptDigest(r.kernel), r.kernel.healthInputs()};
}

OsOptions withPolicy(FpgaPolicy policy) {
  OsOptions opt;
  opt.policy = policy;
  opt.priorityScheduling = true;
  return opt;
}

TEST(OsKernelTranscript, PinnedAcrossPolicies) {
  EXPECT_EQ(runOne(withPolicy(FpgaPolicy::kSoftwareOnly), false).digest,
            0x0d2fd51251b6fdb6ull);
  // The exclusive and dynamic-loading pins were re-pinned when an owner
  // switch of the resident circuit began to charge its register reset.
  EXPECT_EQ(runOne(withPolicy(FpgaPolicy::kExclusive), false).digest,
            0x01927dcec4296ff4ull);
  EXPECT_EQ(runOne(withPolicy(FpgaPolicy::kDynamicLoading), false).digest,
            0x0f906c7a922c8470ull);
  OsOptions sliced = withPolicy(FpgaPolicy::kDynamicLoading);
  sliced.fpgaSlice = micros(400);
  EXPECT_EQ(runOne(sliced, false).digest, 0x75a469f3c0ecb968ull);
  sliced.saveStateOnPreempt = false;
  EXPECT_EQ(runOne(sliced, false).digest, 0x7393617fed090ed0ull);
  OsOptions fixed = withPolicy(FpgaPolicy::kPartitionedFixed);
  fixed.fixedWidths = {4, 4, 4};
  EXPECT_EQ(runOne(fixed, false).digest, 0x08f7a4a132461977ull);
  EXPECT_EQ(
      runOne(withPolicy(FpgaPolicy::kPartitionedVariable), true).digest,
      0x253032bf99a350f0ull);
  // A service beside regular partitions, without compaction.
  OsOptions noGc = withPolicy(FpgaPolicy::kPartitionedVariable);
  noGc.garbageCollect = false;
  EXPECT_EQ(runOne(noGc, false, true).digest, 0x4dcb0d1f97d8c506ull);
}

fault::FaultPlanSpec faultSpec() {
  fault::FaultPlanSpec spec;
  spec.seed = 5;
  spec.downloadCorruptRate = 0.2;
  spec.downloadAbortRate = 0.1;
  spec.stateCorruptRate = 0.15;
  spec.meanUpsetsPerScrub = 1.0;
  spec.execHangRate = 0.25;
  spec.stripFailures = {{micros(50), 5, millis(2)}, {millis(3), 9, 0}};
  return spec;
}

OsOptions faultOptions(FpgaPolicy policy, fault::FaultPlan& plan,
                       const std::string& dir) {
  OsOptions opt = withPolicy(policy);
  opt.ft.plan = &plan;
  opt.ft.scrubInterval = micros(300);
  opt.ft.recovery = fault::RecoveryOptions{true, 2, micros(40)};
  opt.ft.watchdogFactor = 3.0;
  opt.ft.watchdogTripLimit = 3;
  opt.ft.checkpointDir = dir;
  opt.ft.checkpointInterval = micros(250);
  return opt;
}

TEST(OsKernelTranscript, PinnedUnderFaults) {
  const ScratchDir dir("ckpt");
  fault::FaultPlan partitioned(faultSpec());
  const Outcome p = runOne(faultOptions(FpgaPolicy::kPartitionedVariable,
                                        partitioned, dir.path.string()),
                           true);
  EXPECT_EQ(p.digest, 0x44db554bfb2cade0ull);
  // The scenario exercises what it claims to.
  EXPECT_GT(p.health.watchdogPreempts, 0u);
  EXPECT_GT(p.health.downloadRetries, 0u);
  EXPECT_GT(p.health.scrubRepairs, 0u);
  EXPECT_GT(p.health.quarantinedStrips, 0u);
  EXPECT_GT(p.health.healedStrips, 0u);

  std::filesystem::remove_all(dir.path);
  fault::FaultPlan whole(faultSpec());
  OsOptions sliced =
      faultOptions(FpgaPolicy::kDynamicLoading, whole, dir.path.string());
  sliced.fpgaSlice = micros(400);
  const Outcome w = runOne(sliced, false);
  // Re-pinned when a snapshot rejected by its CRC became a roll-back that
  // owes the whole op and runs it to completion, and again when an owner
  // switch of the resident circuit began to charge its register reset.
  EXPECT_EQ(w.digest, 0x4e8dbffb510c1ab2ull);
  EXPECT_GT(w.health.watchdogPreempts, 0u);
  EXPECT_GT(w.health.stateCrcFailures, 0u);
}

// A running task moves to a second kernel mid-execution, and a waiting
// one is checkpointed there and restored.
TEST(OsKernelTranscript, PinnedAcrossMigrationAndRestore) {
  Simulation sim;
  Rig a(sim, withPolicy(FpgaPolicy::kPartitionedVariable));
  Rig b(sim, withPolicy(FpgaPolicy::kPartitionedVariable));
  // Five long executions on room for three: two wait.
  for (std::size_t i = 0; i < 5; ++i) {
    TaskSpec s;
    s.name = "m" + std::to_string(i);
    s.arrival = micros(20) * i;
    s.ops = {FpgaExec{a.configs[i % 3], 150000 + 10000 * i},
             CpuBurst{micros(30)}, FpgaExec{a.configs[(i + 1) % 3], 20000}};
    a.kernel.addTask(s);
  }
  a.kernel.start();
  b.kernel.start();
  while (a.kernel.fpgaWaitingCount() < 2 && sim.step()) {
  }
  ASSERT_EQ(a.kernel.runningExecCount(), 3u);
  ASSERT_EQ(a.kernel.fpgaWaitingCount(), 2u);
  const std::vector<std::size_t> movable = a.kernel.migratableTasks();
  ASSERT_EQ(movable.size(), 5u);
  // A running task moves with its registers; a waiting one is
  // checkpointed and restored on the other kernel.
  OsKernel::MigrationTicket ticket = a.kernel.extractForMigration(1);
  ASSERT_TRUE(ticket.fromRunning);
  b.kernel.addTask(std::move(ticket.continuation));
  ASSERT_EQ(a.kernel.tasks()[4].state, TaskState::kWaitingFpga);
  b.kernel.restoreTask(a.kernel.buildCheckpoint(4, {}));
  a.kernel.extractForMigration(4);
  while (sim.step()) {
  }
  a.kernel.finalize();
  b.kernel.finalize();
  EXPECT_EQ(transcriptDigest(a.kernel), 0xe7edc2a8863c1e74ull);
  EXPECT_EQ(transcriptDigest(b.kernel), 0x08ae57fd96f2aaebull);
}

}  // namespace
}  // namespace vfpga
