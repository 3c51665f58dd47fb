// OS-kernel policy tests: the discrete-event multitasking model, all five
// FPGA policies, preemption vs roll-back, and garbage collection under
// churn. Each test asserts the qualitative relationships the paper argues
// for (E2-E5 quantify them in bench/).
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/diagnostics.hpp"
#include "core/os_kernel.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"
#include "sim/parallel.hpp"
#include "workloads/app_circuits.hpp"
#include "workloads/compile_suite.hpp"
#include "workloads/taskset.hpp"

namespace vfpga {
namespace {

/// Builds a kernel with its own device/port/sim, registers `n` small
/// circuits (width 4 strips on the 12-column medium device) and returns
/// everything bundled.
struct Bench {
  DeviceProfile profile;
  Device dev;
  ConfigPort port;
  Compiler compiler;
  Simulation sim;
  OsKernel kernel;
  std::vector<ConfigId> configs;

  Bench(OsOptions options, std::size_t numConfigs,
        DeviceProfile prof = mediumPartialProfile())
      : profile(prof), dev(profile.makeDevice()), port(dev, profile.port),
        compiler(dev), kernel(sim, dev, port, compiler, options) {
    for (std::size_t i = 0; i < numConfigs; ++i) {
      Netlist nl = (i % 2 == 0)
                       ? lib::makeCounter(6)
                       : lib::makeChecksum(6);
      nl.setName("cfg" + std::to_string(i));
      CompileOptions opt;
      opt.seed = 11 + i;
      configs.push_back(kernel.registerConfig(compiler.compile(
          nl, Region::columns(dev.geometry(), 0, 4), opt)));
    }
  }
};

TaskSpec simpleTask(const std::string& name, SimTime arrival, ConfigId cfg,
                    std::uint64_t cycles,
                    SimDuration cpu = micros(50)) {
  TaskSpec t;
  t.name = name;
  t.arrival = arrival;
  t.ops = {CpuBurst{cpu}, FpgaExec{cfg, cycles}, CpuBurst{cpu}};
  return t;
}

TEST(OsKernel, SingleTaskRunsToCompletion) {
  Bench b(OsOptions{}, 1);
  b.kernel.addTask(simpleTask("t0", 0, b.configs[0], 10000));
  b.kernel.run();
  const auto& m = b.kernel.metrics();
  EXPECT_EQ(m.tasksFinished, 1u);
  EXPECT_EQ(m.fpgaGrants, 1u);
  EXPECT_EQ(m.downloads, 1u);
  EXPECT_GT(m.configTime, 0u);
  EXPECT_EQ(b.kernel.tasks()[0].state, TaskState::kDone);
  // Turnaround >= cpu + exec + config time.
  const SimDuration exec = 10000 * b.kernel.clockPeriod(b.configs[0]);
  EXPECT_GE(b.kernel.tasks()[0].finish, 2 * micros(50) + exec);
}

TEST(OsKernel, CpuRoundRobinInterleavesTasks) {
  OsOptions opt;
  opt.cpuTimeSlice = micros(10);
  Bench b(opt, 1);
  TaskSpec t0;
  t0.name = "cpu0";
  t0.ops = {CpuBurst{micros(100)}};
  TaskSpec t1 = t0;
  t1.name = "cpu1";
  b.kernel.addTask(t0);
  b.kernel.addTask(t1);
  b.kernel.run();
  // With a 10 us slice both 100 us tasks finish within ~200 us of each
  // other (interleaved), not sequentially.
  const auto& tasks = b.kernel.tasks();
  EXPECT_EQ(tasks[0].finish, micros(190));
  EXPECT_EQ(tasks[1].finish, micros(200));
}

TEST(OsKernel, ResidentConfigIsNotRedownloaded) {
  Bench b(OsOptions{}, 1);
  // Two tasks using the same configuration back to back: one download.
  b.kernel.addTask(simpleTask("a", 0, b.configs[0], 5000));
  b.kernel.addTask(simpleTask("b", 0, b.configs[0], 5000));
  b.kernel.run();
  EXPECT_EQ(b.kernel.metrics().downloads, 1u);
}

TEST(OsKernel, AlternatingConfigsThrashTheDevice) {
  Bench b(OsOptions{}, 2);
  for (int i = 0; i < 3; ++i) {
    b.kernel.addTask(simpleTask("a" + std::to_string(i), 0, b.configs[0], 2000));
    b.kernel.addTask(simpleTask("b" + std::to_string(i), 0, b.configs[1], 2000));
  }
  b.kernel.run();
  // FIFO order alternates configs -> every grant needs a download.
  EXPECT_EQ(b.kernel.metrics().downloads, 6u);
}

TEST(OsKernel, ExclusivePolicyNeverPreempts) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kExclusive;
  opt.fpgaSlice = micros(10);  // ignored by exclusive
  Bench b(opt, 2);
  b.kernel.addTask(simpleTask("a", 0, b.configs[0], 200000));
  b.kernel.addTask(simpleTask("b", 0, b.configs[1], 200000));
  b.kernel.run();
  EXPECT_EQ(b.kernel.metrics().fpgaPreemptions, 0u);
  EXPECT_EQ(b.kernel.metrics().tasksFinished, 2u);
}

TEST(OsKernel, DynamicSlicingPreemptsAndFinishesFairly) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kDynamicLoading;
  opt.fpgaSlice = millis(1);
  Bench b(opt, 2);
  // Two long executions (~8 ms each at the measured clock).
  const std::uint64_t cycles =
      millis(8) / 30;  // rough; exact period measured at registration
  b.kernel.addTask(simpleTask("a", 0, b.configs[0], cycles));
  b.kernel.addTask(simpleTask("b", 0, b.configs[1], cycles));
  b.kernel.run();
  const auto& m = b.kernel.metrics();
  EXPECT_GT(m.fpgaPreemptions, 0u);
  EXPECT_EQ(m.rollbacks, 0u);  // state save/restore regime
  EXPECT_GT(m.stateMoveTime, 0u);
  // Preemption interleaves: the second task finishes well before twice the
  // first task's span (they share the device).
  const auto& tasks = b.kernel.tasks();
  EXPECT_LT(tasks[0].finish,
            tasks[1].finish);  // FIFO grant order preserved per slice
}

TEST(OsKernel, RollbackRegimeRestartsExecutions) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kDynamicLoading;
  opt.fpgaSlice = millis(1);
  opt.saveStateOnPreempt = false;
  Bench b(opt, 2);
  const std::uint64_t cycles = millis(3) / 30;
  b.kernel.addTask(simpleTask("a", 0, b.configs[0], cycles));
  b.kernel.addTask(simpleTask("b", 0, b.configs[1], cycles));
  b.kernel.run();
  const auto& m = b.kernel.metrics();
  EXPECT_GT(m.rollbacks, 0u);
  EXPECT_EQ(m.stateMoveTime, 0u);
  // Roll-back wastes compute: total FPGA compute exceeds the useful work.
  const SimDuration useful =
      cycles * (b.kernel.clockPeriod(b.configs[0]) +
                b.kernel.clockPeriod(b.configs[1]));
  EXPECT_GT(m.fpgaComputeTime, useful);
  EXPECT_EQ(m.tasksFinished, 2u);
}

TEST(OsKernel, PartitionsRunTasksConcurrently) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  Bench b(opt, 2);
  // Compute-dominated executions: downloads serialize on the single
  // configuration port, so only long execs expose the concurrency win.
  const std::uint64_t cycles = millis(40) / 30;
  b.kernel.addTask(simpleTask("a", 0, b.configs[0], cycles, micros(1)));
  b.kernel.addTask(simpleTask("b", 0, b.configs[1], cycles, micros(1)));
  b.kernel.run();

  // Same workload, exclusive FIFO.
  OsOptions ex;
  ex.policy = FpgaPolicy::kExclusive;
  Bench b2(ex, 2);
  b2.kernel.addTask(simpleTask("a", 0, b2.configs[0], cycles, micros(1)));
  b2.kernel.addTask(simpleTask("b", 0, b2.configs[1], cycles, micros(1)));
  b2.kernel.run();

  // Two 4-wide circuits fit the 12-column device side by side: the
  // partitioned makespan must be well below the serialized one.
  EXPECT_LT(b.kernel.metrics().makespan,
            b2.kernel.metrics().makespan * 3 / 4);
}

TEST(OsKernel, FixedPartitionsRequireWidths) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedFixed;
  Simulation sim;
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  ConfigPort port(dev, prof.port);
  Compiler compiler(dev);
  EXPECT_THROW(OsKernel(sim, dev, port, compiler, opt),
               std::invalid_argument);
}

TEST(OsKernel, FixedPartitionsServeMatchingWidths) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedFixed;
  opt.fixedWidths = {4, 4, 4};
  Bench b(opt, 3);
  for (int i = 0; i < 3; ++i) {
    b.kernel.addTask(simpleTask("t" + std::to_string(i), 0,
                                b.configs[static_cast<std::size_t>(i)],
                                20000, micros(1)));
  }
  b.kernel.run();
  EXPECT_EQ(b.kernel.metrics().tasksFinished, 3u);
  EXPECT_EQ(b.kernel.metrics().garbageCollections, 0u);  // fixed: never
}

TEST(OsKernel, OversizedConfigRejectedUpFront) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedFixed;
  // Cover all 12 columns so no wider remainder partition appears.
  opt.fixedWidths = {2, 2, 2, 2, 2, 2};
  Bench b(opt, 0);
  Netlist nl = lib::makeCounter(6);
  nl.setName("wide");
  ConfigId cfg = b.kernel.registerConfig(b.compiler.compile(
      nl, Region::columns(b.dev.geometry(), 0, 5)));
  EXPECT_THROW(b.kernel.addTask(simpleTask("t", 0, cfg, 100)),
               std::logic_error);
}

TEST(OsKernel, SoftwareOnlyUsesNoFpga) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kSoftwareOnly;
  opt.softwareSlowdown = 25.0;
  Bench b(opt, 1);
  b.kernel.addTask(simpleTask("t", 0, b.configs[0], 10000));
  b.kernel.run();
  const auto& m = b.kernel.metrics();
  EXPECT_EQ(m.downloads, 0u);
  EXPECT_EQ(m.fpgaGrants, 0u);
  EXPECT_EQ(m.fpgaComputeTime, 0u);
  // Turnaround reflects the slowdown factor.
  const SimDuration hw = 10000 * b.kernel.clockPeriod(b.configs[0]);
  EXPECT_GE(b.kernel.tasks()[0].finish, 25 * hw);
}

TEST(OsKernel, GarbageCollectionTriggersUnderChurn) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  Bench b(opt, 0);
  // Configs of widths 4, 4, 6 on a 12-column device.
  auto makeCfg = [&](const std::string& name, std::uint16_t w) {
    Netlist nl = lib::makeChecksum(4);
    nl.setName(name);
    return b.kernel.registerConfig(b.compiler.compile(
        nl, Region::columns(b.dev.geometry(), 0, w)));
  };
  ConfigId c4a = makeCfg("w4a", 4);
  ConfigId c4b = makeCfg("w4b", 4);
  ConfigId c6 = makeCfg("w6", 6);
  // t0 holds [0,4) briefly, t1 holds [4,8) for long; t2 (width 6) arrives
  // after t0 finished: free = [0,4)+[8,12) fragmented -> GC must move t1.
  TaskSpec t0;
  t0.name = "short";
  t0.ops = {FpgaExec{c4a, 1000}};
  TaskSpec t1;
  t1.name = "long";
  t1.ops = {FpgaExec{c4b, 2000000}};
  TaskSpec t2;
  t2.name = "wide";
  t2.arrival = millis(2);
  t2.ops = {FpgaExec{c6, 1000}};
  b.kernel.addTask(t0);
  b.kernel.addTask(t1);
  b.kernel.addTask(t2);
  b.kernel.run();
  const auto& m = b.kernel.metrics();
  EXPECT_EQ(m.tasksFinished, 3u);
  EXPECT_GE(m.garbageCollections, 1u);
  EXPECT_GE(m.relocations, 1u);
}

// Independent kernels share no mutable state: eight churning kernels on
// four worker threads, invariant checks and relocation proofs on, give
// exactly the serial pass's results. The CI TSan job runs this test.
TEST(OsKernel, IndependentKernelsRunConcurrently) {
  // The GC scenario above, its long task stretched by kernel index.
  auto churn = [](std::size_t i) {
    OsOptions opt;
    opt.policy = FpgaPolicy::kPartitionedVariable;
    Bench b(opt, 0);
    auto makeCfg = [&](const std::string& name, std::uint16_t w) {
      Netlist nl = lib::makeChecksum(4);
      nl.setName(name);
      return b.kernel.registerConfig(b.compiler.compile(
          nl, Region::columns(b.dev.geometry(), 0, w)));
    };
    const ConfigId c4a = makeCfg("w4a", 4);
    const ConfigId c4b = makeCfg("w4b", 4);
    const ConfigId c6 = makeCfg("w6", 6);
    b.kernel.addTask(simpleTask("short", 0, c4a, 1000));
    b.kernel.addTask(simpleTask("long", 0, c4b, 2000000 + 100000 * i));
    b.kernel.addTask(simpleTask("wide", millis(2), c6, 1000));
    b.kernel.run();
    const OsMetrics& m = b.kernel.metrics();
    return std::vector<std::uint64_t>{m.tasksFinished, m.makespan,
                                      m.downloads,     m.bitsDownloaded,
                                      m.garbageCollections, m.relocations};
  };
  const bool was = analysis::invariantChecksEnabled();
  analysis::setInvariantChecks(true);
  const auto serial = parallelMap<std::vector<std::uint64_t>>(8, churn, 1);
  const auto parallel = parallelMap<std::vector<std::uint64_t>>(8, churn, 4);
  analysis::setInvariantChecks(was);
  EXPECT_EQ(parallel, serial);
  for (const auto& r : serial) EXPECT_GE(r[5], 1u) << "no relocation";
}

TEST(OsKernel, GcDisabledStarvesWideTask) {
  // Same scenario but garbage collection off: the wide task can only run
  // after the long task releases its strip (no starvation forever, but a
  // much longer wait).
  auto makespanWith = [&](bool gc) {
    OsOptions opt;
    opt.policy = FpgaPolicy::kPartitionedVariable;
    opt.garbageCollect = gc;
    Bench b(opt, 0);
    auto makeCfg = [&](const std::string& name, std::uint16_t w) {
      Netlist nl = lib::makeChecksum(4);
      nl.setName(name);
      return b.kernel.registerConfig(b.compiler.compile(
          nl, Region::columns(b.dev.geometry(), 0, w)));
    };
    ConfigId c4a = makeCfg("w4a", 4);
    ConfigId c4b = makeCfg("w4b", 4);
    ConfigId c6 = makeCfg("w6", 6);
    TaskSpec t0{"short", 0, 0, {FpgaExec{c4a, 1000}}};
    TaskSpec t1{"long", 0, 0, {FpgaExec{c4b, 2000000}}};
    TaskSpec t2{"wide", millis(2), 0, {FpgaExec{c6, 1000}}};
    b.kernel.addTask(t0);
    b.kernel.addTask(t1);
    b.kernel.addTask(t2);
    b.kernel.run();
    // Wide task's wait is the discriminator.
    return b.kernel.tasks()[2].fpgaWaitTotal;
  };
  EXPECT_LT(makespanWith(true), makespanWith(false));
}

TEST(OsKernel, TaskSetGeneratorIsDeterministicAndRunnable) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kDynamicLoading;
  opt.fpgaSlice = millis(1);
  Bench b(opt, 3);
  workloads::TaskSetParams params;
  params.numTasks = 6;
  params.numConfigs = 3;
  params.execsPerTask = 2;
  Rng rngA(42), rngB(42);
  auto setA = workloads::makeTaskSet(params, rngA);
  auto setB = workloads::makeTaskSet(params, rngB);
  ASSERT_EQ(setA.size(), setB.size());
  for (std::size_t i = 0; i < setA.size(); ++i) {
    EXPECT_EQ(setA[i].arrival, setB[i].arrival);
    EXPECT_EQ(setA[i].ops.size(), setB[i].ops.size());
  }
  for (auto& t : setA) b.kernel.addTask(t);
  b.kernel.run();
  EXPECT_EQ(b.kernel.metrics().tasksFinished, 6u);
  EXPECT_GT(b.kernel.metrics().fpgaUtilization(), 0.0);
  EXPECT_LE(b.kernel.metrics().fpgaUtilization(), 1.0);
}

TEST(OsKernel, WaitTimeAccountingIsConsistent) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kExclusive;
  Bench b(opt, 1);
  // Three identical tasks contending for one device: later tasks wait
  // longer, and waits are monotone in queue position.
  for (int i = 0; i < 3; ++i) {
    b.kernel.addTask(
        simpleTask("t" + std::to_string(i), 0, b.configs[0], 100000,
                   micros(1)));
  }
  b.kernel.run();
  const auto& tasks = b.kernel.tasks();
  EXPECT_LE(tasks[0].fpgaWaitTotal, tasks[1].fpgaWaitTotal);
  EXPECT_LE(tasks[1].fpgaWaitTotal, tasks[2].fpgaWaitTotal);
  EXPECT_EQ(b.kernel.metrics().waitTime.count(), 3u);
}

TEST(OsKernel, ServiceConfigRunsWithoutDownloads) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  Bench b(opt, 1);
  // Install a shared "device driver" circuit (the paper's §3 case of one
  // algorithm serving every task).
  Netlist nl = lib::makeChecksum(6);
  nl.setName("driver");
  ConfigId svc = b.kernel.registerConfig(b.compiler.compile(
      nl, Region::columns(b.dev.geometry(), 0, 4)));
  const SimDuration install = b.kernel.installService(svc);
  EXPECT_GT(install, 0u);
  const auto downloadsAfterInstall = b.kernel.metrics().downloads;

  for (int i = 0; i < 4; ++i) {
    TaskSpec spec;
    spec.name = "drv" + std::to_string(i);
    spec.ops = {FpgaExec{svc, 10000}};
    b.kernel.addTask(spec);
  }
  b.kernel.run();
  const auto& m = b.kernel.metrics();
  EXPECT_EQ(m.tasksFinished, 4u);
  // Not one extra download: the driver stayed resident.
  EXPECT_EQ(m.downloads, downloadsAfterInstall);
  EXPECT_EQ(m.fpgaGrants, 4u);
}

TEST(OsKernel, ServiceRequestsSerializeFifo) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  Bench b(opt, 0);
  Netlist nl = lib::makeChecksum(6);
  nl.setName("driver");
  ConfigId svc = b.kernel.registerConfig(b.compiler.compile(
      nl, Region::columns(b.dev.geometry(), 0, 4)));
  b.kernel.installService(svc);
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.ops = {FpgaExec{svc, 100000}};
    b.kernel.addTask(spec);
  }
  b.kernel.run();
  const auto& tasks = b.kernel.tasks();
  EXPECT_LT(tasks[0].finish, tasks[1].finish);
  EXPECT_LT(tasks[1].finish, tasks[2].finish);
  // Later requests wait roughly one/two execution times.
  EXPECT_GT(tasks[2].fpgaWaitTotal, tasks[0].fpgaWaitTotal);
}

TEST(OsKernel, ServiceCoexistsWithRegularPartitions) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  Bench b(opt, 1);  // one regular config (width 4)
  Netlist nl = lib::makeChecksum(6);
  nl.setName("driver");
  ConfigId svc = b.kernel.registerConfig(b.compiler.compile(
      nl, Region::columns(b.dev.geometry(), 0, 4)));
  b.kernel.installService(svc);
  TaskSpec ts;
  ts.name = "svc_user";
  ts.ops = {FpgaExec{svc, 50000}};
  TaskSpec tr;
  tr.name = "regular";
  tr.ops = {FpgaExec{b.configs[0], 50000}};
  b.kernel.addTask(ts);
  b.kernel.addTask(tr);
  b.kernel.run();
  EXPECT_EQ(b.kernel.metrics().tasksFinished, 2u);
  EXPECT_TRUE(b.dev.configOk());
}

/// A width-`w` circuit registered with `b`'s kernel.
ConfigId registerWidth(Bench& b, const std::string& name, std::uint16_t w) {
  Netlist nl = lib::makeChecksum(4);
  nl.setName(name);
  return b.kernel.registerConfig(
      b.compiler.compile(nl, Region::columns(b.dev.geometry(), 0, w)));
}

/// A service (width 3) with two queued requests: a long one (task 0) and
/// a short one (task 1).
ConfigId installTwoRequestService(Bench& b) {
  const ConfigId svc = registerWidth(b, "driver", 3);
  b.kernel.installService(svc);
  for (const std::uint64_t cycles : {5000000u, 1000u}) {
    TaskSpec spec;
    spec.name = "req" + std::to_string(cycles);
    spec.ops = {FpgaExec{svc, cycles}};
    b.kernel.addTask(spec);
  }
  return svc;
}

/// Checks the long request of installTwoRequestService: it was stalled,
/// finished at its deadline plus every stall, and the service then served
/// the queued request.
void expectStalledRequestFinished(Bench& b) {
  const OsKernel& k = b.kernel;
  SimTime end = 0;
  SimTime nextStart = 0;
  for (const obs::SpanRecord& s : k.spanTracer().spans()) {
    if (s.category != "os.service") continue;
    if (s.track == 1) end = s.startNs + s.durationNs;
    if (s.track == 2) nextStart = s.startNs;
  }
  ASSERT_GT(end, 0u);
  std::size_t stalls = 0;
  for (const obs::InstantRecord& i : k.spanTracer().instants()) {
    if (i.name != "stall" || i.track != 1) continue;
    ++stalls;
    end += std::stoull(i.attributes.at(1).second);
  }
  EXPECT_GT(stalls, 0u);
  for (const TaskRuntime& t : k.tasks()) {
    EXPECT_EQ(t.state, TaskState::kDone) << t.spec.name;
  }
  EXPECT_EQ(k.tasks()[0].finish, end);
  EXPECT_EQ(nextStart, end);
  EXPECT_TRUE(b.dev.configOk());
}

// A compaction while a service request computes stalls the request like
// any other execution; the request still completes through its service.
TEST(OsKernel, ServiceRequestSurvivesCompaction) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  Bench b(opt, 0);
  installTwoRequestService(b);
  const ConfigId narrow = registerWidth(b, "w3", 3);
  const ConfigId wide = registerWidth(b, "w6", 6);
  // Three width-3 tasks fill the rest of the device; the middle one stays,
  // so the wide task finds six free columns only after compaction.
  for (const std::uint64_t cycles : {1000u, 2000000u, 1000u}) {
    TaskSpec spec;
    spec.name = "n" + std::to_string(cycles);
    spec.ops = {FpgaExec{narrow, cycles}};
    b.kernel.addTask(spec);
  }
  TaskSpec w;
  w.name = "wide";
  w.arrival = micros(500);
  w.ops = {FpgaExec{wide, 1000}};
  b.kernel.addTask(w);
  b.kernel.run();
  EXPECT_GE(b.kernel.metrics().garbageCollections, 1u);
  expectStalledRequestFinished(b);
}

// A strip quarantine's hygiene sweep stalls a running service request the
// same way.
TEST(OsKernel, ServiceRequestSurvivesQuarantine) {
  fault::FaultPlanSpec spec;
  spec.stripFailures = {{micros(300), 10}};
  fault::FaultPlan plan(spec);
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  opt.ft.plan = &plan;
  Bench b(opt, 0);
  installTwoRequestService(b);
  b.kernel.run();
  EXPECT_EQ(b.kernel.healthInputs().quarantinedStrips, 1u);
  expectStalledRequestFinished(b);
}

// A service's pinned columns are never free: a circuit that fits the
// degraded device only through them is parked, not left waiting forever.
TEST(OsKernel, PinnedServiceColumnsAreNoRoomForOthers) {
  fault::FaultPlanSpec spec;
  spec.stripFailures = {{micros(100), 8}};
  fault::FaultPlan plan(spec);
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  opt.ft.plan = &plan;
  Bench b(opt, 0);
  const ConfigId svc = registerWidth(b, "driver", 4);
  const ConfigId wide = registerWidth(b, "w6", 6);
  b.kernel.installService(svc);
  // Columns 0-7 minus the service's four, and 9-11: no room for six.
  TaskSpec w;
  w.name = "wide";
  w.arrival = micros(200);
  w.ops = {FpgaExec{wide, 1000}};
  b.kernel.addTask(w);
  b.kernel.run();
  EXPECT_EQ(b.kernel.tasks()[0].state, TaskState::kParked);
}

// The watchdog's requeue obeys the admission rule of a fresh request: a
// hung execution whose release lets a deferred quarantine shrink the
// device below its circuit is parked, not left waiting forever.
TEST(OsKernel, WatchdogRequeueParksWhatNoLongerFits) {
  fault::FaultPlanSpec spec;
  spec.execHangRate = 1.0;
  spec.stripFailures = {{micros(100), 5}};  // under the hung circuit
  fault::FaultPlan plan(spec);
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  opt.ft.plan = &plan;
  Bench b(opt, 0);
  TaskSpec w;
  w.name = "wide";
  w.ops = {FpgaExec{registerWidth(b, "w8", 8), 1000}};
  b.kernel.addTask(w);
  b.kernel.run();
  const TaskRuntime& t = b.kernel.tasks()[0];
  EXPECT_EQ(t.state, TaskState::kParked);
  EXPECT_EQ(t.watchdogTrips, 1u);
  EXPECT_EQ(b.kernel.healthInputs().quarantinedStrips, 1u);
}

TEST(OsKernel, ServiceRequiresPartitionedPolicy) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kDynamicLoading;
  Bench b(opt, 1);
  EXPECT_THROW(b.kernel.installService(b.configs[0]), std::logic_error);
}

TEST(OsKernel, DuplicateServiceInstallRejected) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  Bench b(opt, 1);
  b.kernel.installService(b.configs[0]);
  EXPECT_THROW(b.kernel.installService(b.configs[0]), std::logic_error);
}

TEST(OsKernel, PriorityJumpsBothQueues) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kExclusive;
  opt.priorityScheduling = true;
  Bench b(opt, 1);
  // Three low-priority tasks queue up; a high-priority one arrives later
  // and must be granted the device before the remaining low ones.
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec;
    spec.name = "low" + std::to_string(i);
    spec.priority = 0;
    spec.ops = {FpgaExec{b.configs[0], 300000}};
    b.kernel.addTask(spec);
  }
  TaskSpec hi;
  hi.name = "hi";
  hi.priority = 10;
  hi.arrival = micros(100);  // after all three queued
  hi.ops = {FpgaExec{b.configs[0], 300000}};
  b.kernel.addTask(hi);
  b.kernel.run();
  const auto& tasks = b.kernel.tasks();
  // hi (index 3) finishes before low1 and low2 (only low0, already
  // running non-preemptably, precedes it).
  EXPECT_LT(tasks[3].finish, tasks[1].finish);
  EXPECT_LT(tasks[3].finish, tasks[2].finish);
}

TEST(OsKernel, PriorityIgnoredWhenDisabled) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kExclusive;
  Bench b(opt, 1);
  for (int i = 0; i < 2; ++i) {
    TaskSpec spec;
    spec.name = "low" + std::to_string(i);
    spec.ops = {FpgaExec{b.configs[0], 300000}};
    b.kernel.addTask(spec);
  }
  TaskSpec hi;
  hi.name = "hi";
  hi.priority = 10;
  hi.arrival = micros(100);
  hi.ops = {FpgaExec{b.configs[0], 300000}};
  b.kernel.addTask(hi);
  b.kernel.run();
  const auto& tasks = b.kernel.tasks();
  // Plain FIFO: hi finishes last despite its priority.
  EXPECT_GT(tasks[2].finish, tasks[0].finish);
  EXPECT_GT(tasks[2].finish, tasks[1].finish);
}

// ------------------------------------------ register state: one resume

/// Registers the init-1 `lfsr` (its install writes a 1 into a register).
ConfigId registerLfsr(Bench& b) {
  Netlist nl = lib::makeLfsr(8, 0b10111000);
  nl.setName("lfsr");
  const ConfigId id = b.kernel.registerConfig(
      b.compiler.compile(nl, Region::columns(b.dev.geometry(), 0, 4)));
  EXPECT_TRUE(b.kernel.registry().circuit(id).needsInitialState());
  return id;
}

// A compaction moves the lfsr with its registers: the move reads them back
// once and its install resumes them, one writeback, not the initial
// values' writeback followed by the restore's.
TEST(OsKernel, GcRelocationChargesOneWriteback) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  Bench b(opt, 0);
  const ConfigId narrow = registerWidth(b, "w4", 4);
  const ConfigId lfsr = registerLfsr(b);
  const ConfigId wide = registerWidth(b, "w8", 8);
  // [0,4) frees early; the wide task then fits only once the lfsr at
  // [4,8) moves to [0,4).
  TaskSpec shortTask;
  shortTask.name = "short";
  shortTask.ops = {FpgaExec{narrow, 1000}};
  TaskSpec longTask;
  longTask.name = "long";
  longTask.ops = {FpgaExec{lfsr, 2000000}};
  TaskSpec wideTask;
  wideTask.name = "wide";
  wideTask.arrival = millis(2);
  wideTask.ops = {FpgaExec{wide, 1000}};
  for (const TaskSpec& t : {shortTask, longTask, wideTask}) {
    b.kernel.addTask(t);
  }
  b.kernel.run();
  ASSERT_EQ(b.kernel.metrics().relocations, 1u);
  EXPECT_EQ(b.port.stats().stateReads, 1u);
  // The lfsr's install, then its move.
  EXPECT_EQ(b.port.stats().stateWrites, 2u);
}

// A migrated-in task and a checkpoint-restored one resume the registers
// they carry through their install: one writeback each, not the initial
// values' writeback followed by the restore's.
TEST(OsKernel, CarriedRegistersPayOneWriteback) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  Bench src(opt, 0);
  TaskSpec spec;
  spec.name = "lfsr";
  spec.ops = {FpgaExec{registerLfsr(src), 2000000}};
  src.kernel.addTask(spec);
  src.kernel.start();
  while (src.kernel.runningExecCount() == 0 && src.sim.step()) {
  }
  const PartitionManager& pm = *src.kernel.partitionManager();
  const std::vector<bool> registers =
      LoadedCircuit(src.dev, pm.circuitIn(src.kernel.tasks()[0].partition))
          .saveState();
  const fault::TaskCheckpoint ck = src.kernel.buildCheckpoint(0, registers);
  const TaskSpec continuation =
      src.kernel.extractForMigration(0).continuation;
  ASSERT_EQ(continuation.migratedState, registers);
  for (const bool viaCheckpoint : {false, true}) {
    SCOPED_TRACE(viaCheckpoint ? "checkpoint restore" : "migration");
    Bench dst(opt, 0);
    registerLfsr(dst);
    if (viaCheckpoint) {
      dst.kernel.restoreTask(ck);
    } else {
      dst.kernel.addTask(continuation);
    }
    // Until its first grant, the task's checkpoint carries the registers.
    EXPECT_EQ(dst.kernel.buildCheckpoint(0, {}).registers, registers);
    dst.kernel.run();
    EXPECT_TRUE(dst.kernel.tasks()[0].done());
    EXPECT_EQ(dst.port.stats().stateWrites, 1u);
  }
}

// Three sliced tasks, two of them on one circuit, each resume only their
// own registers: a grant restores exactly when the task's last run was
// saved on its way off the device (at the grant that followed it), so a
// first grant restores nothing and a task whose circuit another task used
// meanwhile still resumes.
TEST(OsKernel, SlicedTasksResumeOnlyTheirOwnRegisters) {
  OsOptions opt;
  opt.fpgaSlice = millis(1);
  Bench b(opt, 2);
  b.kernel.addTask(simpleTask("t1", 0, b.configs[0], 100000));
  b.kernel.addTask(simpleTask("t3", micros(10), b.configs[1], 100000));
  b.kernel.addTask(simpleTask("t2", micros(20), b.configs[0], 100000));
  b.kernel.run();
  const auto recordedAt = [&](TraceKind kind, SimTime at) {
    for (const TraceRecord& r : b.kernel.trace().ofKind(kind)) {
      if (r.at == at) return true;
    }
    return false;
  };
  std::vector<const obs::SpanRecord*> grants;
  for (const obs::SpanRecord& s : b.kernel.spanTracer().spans()) {
    if (s.category == "os.fpga_exec") grants.push_back(&s);
  }
  std::size_t resumes = 0;
  for (std::size_t i = 0; i < grants.size(); ++i) {
    const std::uint32_t track = grants[i]->track;
    SCOPED_TRACE("grant at " + std::to_string(grants[i]->startNs));
    std::size_t prev = i;
    while (prev > 0 && grants[--prev]->track != track) {
    }
    const bool first = prev == i || grants[prev]->track != track;
    // The save at the grant after the task's last one holds its registers.
    const bool saved = !first && grants[prev + 1]->track != track &&
                       recordedAt(TraceKind::kStateSave,
                                  grants[prev + 1]->startNs);
    EXPECT_EQ(recordedAt(TraceKind::kStateRestore, grants[i]->startNs),
              saved);
    resumes += saved ? 1 : 0;
  }
  EXPECT_GE(resumes, 6u);
  // t2's last slice resumes although t1, on the same circuit, finished.
  const auto t2Last =
      std::find_if(grants.rbegin(), grants.rend(),
                   [](const obs::SpanRecord* s) { return s->track == 3; });
  ASSERT_NE(t2Last, grants.rend());
  EXPECT_LT(b.kernel.tasks()[0].finish, (*t2Last)->startNs);
  EXPECT_TRUE(recordedAt(TraceKind::kStateRestore, (*t2Last)->startNs));
  for (const TaskRuntime& t : b.kernel.tasks()) {
    EXPECT_EQ(t.cyclesExecuted, 100000u) << t.spec.name;
  }
}

// A whole-device task cut on a slice boundary checkpoints the loader's
// snapshot of its registers with its residual cycles; restored on another
// kernel, its first grant resumes them and it runs exactly the rest.
TEST(OsKernel, SlicedCheckpointCarriesTheLoaderSnapshot) {
  OsOptions opt;
  opt.fpgaSlice = millis(1);
  Bench src(opt, 2);
  src.kernel.addTask(simpleTask("cut", 0, src.configs[0], 100000));
  src.kernel.addTask(simpleTask("other", 0, src.configs[1], 100000));
  src.kernel.start();
  const TaskRuntime& cut = src.kernel.tasks()[0];
  while ((cut.state != TaskState::kWaitingFpga || cut.preemptions == 0) &&
         src.sim.step()) {
  }
  ASSERT_EQ(cut.state, TaskState::kWaitingFpga);
  const fault::TaskCheckpoint ck = src.kernel.buildCheckpoint(0, {});
  EXPECT_EQ(ck.registers.size(),
            src.kernel.registry().circuit(src.configs[0]).ffCount());
  ASSERT_TRUE(ck.ops.front().isFpga);
  EXPECT_EQ(cut.cyclesExecuted + ck.ops.front().cycles, 100000u);

  Bench dst(opt, 2);
  dst.kernel.restoreTask(ck);
  dst.kernel.run();
  const TaskRuntime& restored = dst.kernel.tasks()[0];
  EXPECT_TRUE(restored.done());
  EXPECT_EQ(restored.cyclesExecuted, ck.ops.front().cycles);
  EXPECT_EQ(dst.kernel.trace().count(TraceKind::kStateRestore), 1u);
  EXPECT_EQ(dst.port.stats().stateWrites, 1u);
}

// ------------------------------------------------ one port-booking rule

// A migration's register readback occupies the configuration port: the
// download of the waiter granted the freed strip starts when it ends.
TEST(OsKernel, MigrationReadbackBooksThePort) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  Bench b(opt, 3);
  // Three long executions fill the device; a fourth waits.
  for (std::size_t i = 0; i < 4; ++i) {
    TaskSpec spec;
    spec.name = "m" + std::to_string(i);
    spec.ops = {FpgaExec{b.configs[i % 3], 10000000}};
    b.kernel.addTask(spec);
  }
  // Let the three downloads end, then hand a running task off.
  const SimTime handOff = millis(20);
  b.sim.scheduleAt(handOff, [] {});
  b.kernel.start();
  while (b.sim.now() < handOff && b.sim.step()) {
  }
  ASSERT_EQ(b.kernel.runningExecCount(), 3u);
  ASSERT_EQ(b.kernel.fpgaWaitingCount(), 1u);
  const OsKernel::MigrationTicket ticket = b.kernel.extractForMigration(0);
  ASSERT_TRUE(ticket.fromRunning);
  ASSERT_GT(ticket.cost, 0u);
  const obs::SpanRecord* download = nullptr;
  for (const obs::SpanRecord& s : b.kernel.spanTracer().spans()) {
    if (s.category == "os.config" && s.track == 4) download = &s;
  }
  ASSERT_NE(download, nullptr);
  EXPECT_EQ(download->startNs, handOff + ticket.cost);
}

// A whole-device switch occupies the configuration port: a scrub tick
// that falls inside the first download yields until it ends.
TEST(OsKernel, ScrubDefersBehindAWholeDeviceSwitch) {
  fault::FaultPlan plan{fault::FaultPlanSpec{}};
  OsOptions opt;
  opt.ft.plan = &plan;
  opt.ft.scrubInterval = micros(100);
  Bench b(opt, 1);
  TaskSpec spec;
  spec.name = "t";
  spec.ops = {FpgaExec{b.configs[0], 10000}};
  b.kernel.addTask(spec);
  b.kernel.run();
  ASSERT_GT(b.kernel.metrics().configTime, micros(100));
  std::size_t deferred = 0;
  for (const TraceRecord& r : b.kernel.trace().ofKind(TraceKind::kInfo)) {
    if (r.detail.rfind("scrub deferred", 0) == 0) ++deferred;
  }
  EXPECT_EQ(deferred, 1u);
}

// -------------------------------------------------- hung-slice restart

// A hung whole-device slice restarts its op, as the watchdog promises: the
// whole op is owed again and counts as a roll-back, and although the
// circuit is still resident for the same task, the next grant installs its
// initial values (a charged writeback for the init-1 lfsr) instead of
// computing on the hung registers.
TEST(OsKernel, HungSliceRestartsTheWholeOp) {
  fault::FaultPlanSpec spec;
  spec.seed = 2;
  spec.execHangRate = 0.25;
  fault::FaultPlan plan(spec);
  OsOptions opt;
  opt.fpgaSlice = millis(1);
  opt.ft.plan = &plan;
  opt.ft.watchdogFactor = 2.0;
  opt.ft.watchdogTripLimit = 5;
  Bench b(opt, 0);
  Netlist nl = lib::makeLfsr(8, 0b10111000);
  nl.setName("lfsr");
  const ConfigId lfsr = b.kernel.registerConfig(
      b.compiler.compile(nl, Region::columns(b.dev.geometry(), 0, 4)));
  ASSERT_TRUE(b.kernel.registry().circuit(lfsr).needsInitialState());
  constexpr std::uint64_t kCycles = 200000;
  TaskSpec spec1;
  spec1.name = "t";
  spec1.ops = {FpgaExec{lfsr, kCycles}};
  b.kernel.addTask(spec1);
  b.kernel.run();

  const TaskRuntime& t = b.kernel.tasks()[0];
  // Exec spans (slices) and the watchdog trips, in time order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> slices;  // start, cycles
  for (const obs::SpanRecord& s : b.kernel.spanTracer().spans()) {
    if (s.category != "os.fpga_exec") continue;
    for (const auto& [key, value] : s.attributes) {
      if (key == "cycles") slices.emplace_back(s.startNs, std::stoull(value));
    }
  }
  std::vector<std::uint64_t> trips;
  for (const obs::InstantRecord& i : b.kernel.spanTracer().instants()) {
    if (i.name == "preempt/watchdog") trips.push_back(i.atNs);
  }
  ASSERT_TRUE(t.done());
  ASSERT_EQ(trips.size(), 1u);
  // The trip cut the task's second slice, after its first one completed.
  ASSERT_EQ(std::count_if(slices.begin(), slices.end(),
                          [&](const auto& sl) { return sl.first < trips[0]; }),
            2);
  EXPECT_EQ(t.watchdogTrips, 1u);
  EXPECT_EQ(t.rollbacks, 1u);
  std::uint64_t rerun = 0;
  for (const auto& [start, cycles] : slices) {
    if (start >= trips[0]) rerun += cycles;
  }
  EXPECT_EQ(rerun, kCycles);
  // One initial-value writeback at the first grant, one at the restart.
  EXPECT_EQ(b.port.stats().stateWrites, 2u);
}

// ------------------------------------------------------- registration

// Registration reads a circuit's clock period from its image, with no
// device or port traffic; the oracle is the old measurement, the circuit
// downloaded alone onto a blank device.
TEST(OsKernel, RegistrationReadsTheClockPeriodFromTheImage) {
  for (const DeviceProfile& prof : {tinyProfile(), mediumPartialProfile()}) {
    SCOPED_TRACE(prof.name);
    Device dev = prof.makeDevice();
    ConfigPort port(dev, prof.port);
    Compiler compiler(dev);
    Simulation sim;
    OsKernel kernel(sim, dev, port, compiler, OsOptions{});
    const std::uint64_t generation = dev.configGeneration();
    const ConfigPortStats traffic = port.stats();
    std::size_t registered = 0;
    for (const workloads::AppCircuit& app : workloads::allSuites()) {
      CompiledCircuit c;
      try {
        c = workloads::compileMinimal(compiler, app.netlist);
      } catch (const CompileError&) {
        continue;  // does not fit this device (5 of 23 on tiny)
      }
      Device blank = prof.makeDevice();
      blank.applyBitstream(c.fullBitstream());
      ASSERT_TRUE(blank.configOk()) << app.name;
      const ConfigId id = kernel.registerConfig(std::move(c));
      EXPECT_EQ(kernel.clockPeriod(id), blank.minClockPeriod()) << app.name;
      ++registered;
    }
    EXPECT_GT(registered, 0u);
    EXPECT_EQ(dev.configGeneration(), generation);
    EXPECT_EQ(port.stats(), traffic);
  }
}

// A circuit whose image has driver contention does not decode, and is
// refused without entering the registry.
TEST(OsKernel, RegistrationRefusesAnImageThatDoesNotDecode) {
  Bench b(OsOptions{}, 0);
  CompiledCircuit c = b.compiler.compile(
      lib::makeCounter(6), Region::columns(b.dev.geometry(), 0, 4));
  const RoutingGraph& rrg = b.dev.rrg();
  const ConfigMap& map = b.dev.configMap();
  ConfigImage image(map.totalBits());
  applyBitstream(image, c.partialBitstream());
  // Enable a second driver into a routing node that already has one, in
  // the partial bitstream (an edge into a node is in its column's frames).
  bool contended = false;
  for (RRNodeId n = 0; n < rrg.nodeCount() && !contended; ++n) {
    const auto in = rrg.edgesInto(n);
    const auto driven = std::find_if(in.begin(), in.end(), [&](RREdgeId e) {
      return image.get(map.edgeBit(e));
    });
    if (driven == in.end()) continue;
    for (RREdgeId e : in) {
      if (e == *driven) continue;
      const std::uint32_t bit = map.edgeBit(e);
      for (Frame& f : c.bitstream.frames) {
        if (f.id != map.frameOfBit(bit)) continue;
        f.setBit(bit % map.frameBits(), true);
        contended = true;
      }
      break;
    }
  }
  ASSERT_TRUE(contended);
  c.bitstream.sealCrc();
  try {
    b.kernel.registerConfig(std::move(c));
    ADD_FAILURE() << "a contended image was registered";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(
                  "registered circuit does not decode: driver contention",
                  0),
              0u)
        << e.what();
  }
  EXPECT_EQ(b.kernel.registry().size(), 0u);
}

}  // namespace
}  // namespace vfpga
