// Fault-injection and fault-tolerance tests: seeded campaigns against the
// whole stack (wire corruption, truncated transfers, configuration upsets,
// snapshot rot, permanent strip failures, hangs) plus unit coverage of the
// quarantine allocator, frame-CRC verification and the readback scrubber.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "analysis/fault_lint.hpp"
#include "analysis/kernel_check.hpp"
#include "core/os_kernel.hpp"
#include "core/strip_allocator.hpp"
#include "fabric/device_family.hpp"
#include "fault/fault_plan.hpp"
#include "fault/recovery.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"
#include "util/hash.hpp"
#include "workloads/taskset.hpp"

namespace vfpga {
namespace {

Netlist named(Netlist nl, const char* name) {
  nl.setName(name);
  return nl;
}

std::uint64_t faultCounter(OsKernel& kernel, FpgaPolicy policy,
                           const char* name) {
  return kernel.metricsRegistry()
      .counter(name, {{"policy", fpgaPolicyName(policy)}}, "")
      .value();
}

// ---- FaultPlan ------------------------------------------------------------

TEST(FaultPlan, SameSeedSameFaultSequence) {
  fault::FaultPlanSpec spec;
  spec.seed = 42;
  spec.downloadCorruptRate = 0.5;
  spec.downloadAbortRate = 0.3;
  spec.stateCorruptRate = 0.5;
  spec.meanUpsetsPerScrub = 2.0;
  spec.execHangRate = 0.4;
  fault::FaultPlan a(spec);
  fault::FaultPlan b(spec);

  const ConfigImage image(1024);
  const Bitstream bs = makeFullBitstream(image, 128);
  std::size_t flips = 0;
  for (int i = 0; i < 20; ++i) {
    const DownloadTamper ta = a.tamperDownload(bs);
    const DownloadTamper tb = b.tamperDownload(bs);
    EXPECT_EQ(ta.framesApplied, tb.framesApplied);
    EXPECT_EQ(ta.flips, tb.flips);
    flips += ta.flips.size();
    // Flips strike only frames that reach the device.
    for (const auto& [frame, bit] : ta.flips) {
      EXPECT_LT(frame, std::min<std::uint64_t>(ta.framesApplied,
                                               bs.frameCount()));
      EXPECT_LT(bit, bs.frameBits);
    }
    std::vector<bool> sa(64, false);
    std::vector<bool> sb(64, false);
    EXPECT_EQ(a.corruptState(sa), b.corruptState(sb));
    EXPECT_EQ(sa, sb);
    EXPECT_EQ(a.drawUpsets(4096), b.drawUpsets(4096));
    EXPECT_EQ(a.execHangs(), b.execHangs());
  }
  EXPECT_EQ(a.counters().corruptedDownloads, b.counters().corruptedDownloads);
  EXPECT_EQ(a.counters().flippedBits, flips);
  EXPECT_GT(flips, 0u);
  EXPECT_EQ(a.counters().upsets, b.counters().upsets);
  EXPECT_GT(a.counters().corruptedDownloads +
                a.counters().abortedDownloads + a.counters().upsets,
            0u);
}

TEST(FaultPlan, InertSpecInjectsNothing) {
  fault::FaultPlan plan(fault::FaultPlanSpec{});
  const ConfigImage image(256);
  for (int i = 0; i < 10; ++i) {
    const DownloadTamper t = plan.tamperDownload(makeFullBitstream(image, 64));
    EXPECT_EQ(t.framesApplied, kAllFrames);
    EXPECT_TRUE(t.flips.empty());
    std::vector<bool> state(32, true);
    EXPECT_FALSE(plan.corruptState(state));
    EXPECT_TRUE(plan.drawUpsets(1024).empty());
    EXPECT_FALSE(plan.execHangs());
  }
  EXPECT_EQ(plan.counters().flippedBits, 0u);
}

// ---- quarantine allocator -------------------------------------------------

TEST(StripAllocatorQuarantine, VariableModeLosesOnlyTheFailedColumn) {
  StripAllocator alloc(12);
  alloc.quarantineColumn(5);
  EXPECT_EQ(alloc.quarantinedColumns(), 1);
  EXPECT_EQ(alloc.totalFree(), 11);
  EXPECT_EQ(alloc.largestFree(), 6);        // [6..11]
  EXPECT_EQ(alloc.largestUsableSpan(), 6);  // quarantine caps every future fit
  // The faulty column is never allocated: a full-width request now fails.
  EXPECT_FALSE(alloc.allocate(12).has_value());
  EXPECT_TRUE(alloc.allocate(6).has_value());
}

TEST(StripAllocatorQuarantine, FixedModeLosesTheWholePartition) {
  StripAllocator alloc(12, {4, 4, 4});
  alloc.quarantineColumn(5);
  EXPECT_EQ(alloc.quarantinedColumns(), 4);
  EXPECT_EQ(alloc.totalFree(), 8);
}

TEST(StripAllocatorQuarantine, BusyStripMustBeEvacuatedFirst) {
  StripAllocator alloc(12);
  const auto id = alloc.allocate(4);
  ASSERT_TRUE(id.has_value());
  EXPECT_THROW(alloc.quarantineColumn(2), std::logic_error);
  alloc.release(*id);
  EXPECT_NO_THROW(alloc.quarantineColumn(2));
}

TEST(StripAllocatorQuarantine, CompactionPinsFaultyStrips) {
  StripAllocator alloc(12);
  const auto a = alloc.allocate(3);
  const auto b = alloc.allocate(3);
  ASSERT_TRUE(a && b);
  alloc.release(*a);             // idle [0..2], busy [3..5], idle [6..11]
  alloc.quarantineColumn(8);     // pin in the right idle region
  const auto moves = alloc.compact();
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].toX0, 0);   // busy strip packed left of the pin
  for (const Strip& s : alloc.strips()) {
    if (s.faulty) {
      EXPECT_EQ(s.x0, 8);  // the pin did not move
    }
  }
  alloc.checkInvariants();
  // All idle space on one side of the pin consolidates.
  EXPECT_EQ(alloc.largestFreeAfterCompaction(), alloc.largestFree());
}

TEST(StripAllocatorQuarantine, Al005FlagsBusyFaultyStrip) {
  std::vector<Strip> strips = {
      Strip{1, 0, 4, true, true},    // busy AND faulty: the invariant breach
      Strip{2, 4, 8, false, false},
  };
  analysis::Report rep;
  analysis::verifyStrips(strips, 12, false, rep);
  bool found = false;
  for (const auto& d : rep.diagnostics()) {
    if (d.rule == "AL005") found = true;
  }
  EXPECT_TRUE(found);
}

// ---- frame CRC verify + scrub ---------------------------------------------

TEST(ConfigPortFaults, VerifyDetectsCorruptionAndRetryHeals) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  ConfigPort port(dev, prof.port);

  // Corrupt exactly the first attempt of every download.
  int attempt = 0;
  port.setTamperHook([&attempt](const Bitstream& bs) {
    DownloadTamper t;
    if (attempt++ == 0 && !bs.frames.empty()) t.flips.push_back({0, 3});
    return t;
  });

  ConfigImage image(dev.configMap().totalBits());
  for (std::uint32_t b = 0; b < 64; ++b) image.set(b, (b % 3) == 0);
  const Bitstream bs = makeFullBitstream(image, dev.configMap().frameBits());

  fault::RecoveryOptions rec{true, 3, micros(50)};
  const fault::DownloadOutcome out = fault::downloadWithRetry(port, bs, rec);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.retries, 1);
  EXPECT_GT(out.verifyFailures, 0u);
  EXPECT_EQ(dev.image(), image);  // healed copy matches the intent
  EXPECT_GT(port.stats().verifyFailures, 0u);
}

TEST(ConfigPortFaults, RetryBudgetExhaustedReportsFailure) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  ConfigPort port(dev, prof.port);
  port.setTamperHook([](const Bitstream& bs) {
    DownloadTamper t;
    t.framesApplied = bs.frames.size() / 2;  // every transfer truncated
    return t;
  });
  ConfigImage image(dev.configMap().totalBits());
  // Set bits in late frames too, so the truncated prefix provably differs.
  for (std::uint32_t b = 0; b < image.size(); b += 97) image.set(b, true);
  const Bitstream bs = makeFullBitstream(image, dev.configMap().frameBits());
  const fault::DownloadOutcome out =
      fault::downloadWithRetry(port, bs, fault::RecoveryOptions{true, 2});
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.retries, 2);
  EXPECT_EQ(out.aborts, 3u);  // initial try + 2 retries, all truncated
}

/// An image whose every frame holds a set bit, and a partial or a full
/// bitstream of it.
Bitstream everyFrameSet(const Device& dev, bool full) {
  const std::uint32_t frameBits = dev.configMap().frameBits();
  ConfigImage image(dev.configMap().totalBits());
  for (std::uint32_t b = 0; b < image.size(); b += frameBits) {
    image.set(b + (b / frameBits) % frameBits, true);
  }
  if (full) return makeFullBitstream(image, frameBits);
  const std::vector<std::uint32_t> frames = {2, 3, 5, 8, 9, 13, 21};
  return makePartialBitstream(image, frameBits, frames);
}

TEST(ConfigPortFaults, SilentHookLeavesTheDownloadUntouched) {
  DeviceProfile prof = mediumPartialProfile();
  for (bool full : {false, true}) {
    Device plainDev = prof.makeDevice();
    Device hookedDev = prof.makeDevice();
    ConfigPort plain(plainDev, prof.port);
    ConfigPort hooked(hookedDev, prof.port);
    int calls = 0;
    hooked.setTamperHook([&calls](const Bitstream&) {
      ++calls;
      return DownloadTamper{};
    });
    const Bitstream bs = everyFrameSet(plainDev, full);
    EXPECT_EQ(hooked.download(bs), plain.download(bs));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(hookedDev.image(), plainDev.image());
    EXPECT_EQ(hooked.expectedImage(), plain.expectedImage());
    EXPECT_EQ(hooked.stats(), plain.stats());
    EXPECT_EQ(hooked.stats().corruptedDownloads, 0u);
    EXPECT_EQ(hooked.stats().abortedDownloads, 0u);
    EXPECT_TRUE(hooked.verifyDownload(bs).ok);
  }
}

TEST(ConfigPortFaults, ReportedFlipsLandInTheAppliedPrefix) {
  DeviceProfile prof = mediumPartialProfile();
  for (bool full : {false, true}) {
    Device dev = prof.makeDevice();
    ConfigPort port(dev, prof.port);
    const Bitstream bs = everyFrameSet(dev, full);
    const std::size_t applied = bs.frameCount() / 2;
    ASSERT_GE(applied, 2u);
    port.setTamperHook([applied](const Bitstream&) {
      DownloadTamper t;
      t.framesApplied = applied;
      t.flips = {{0, 5},         // lands
                 {1, 7}, {1, 7}, // flipped twice: restored
                 {applied, 0}};  // past the truncation: never arrives
      return t;
    });
    const SimDuration cost = port.download(bs);

    Bitstream wire = bs;
    wire.frames.resize(applied);
    wire.frames[0].flipBit(5);
    ConfigImage landed(dev.configMap().totalBits());
    applyBitstream(landed, wire);
    EXPECT_EQ(dev.image(), landed);
    // The golden image keeps the intended bits.
    ConfigImage intent(dev.configMap().totalBits());
    applyBitstream(intent, bs);
    EXPECT_EQ(port.expectedImage(), intent);
    // Only the prefix is charged and written.
    EXPECT_EQ(cost, port.downloadCost(wire));
    EXPECT_EQ(port.stats().bitsWritten, applied * bs.frameBits);
    EXPECT_EQ(port.stats().abortedDownloads, 1u);
    EXPECT_EQ(port.stats().corruptedDownloads, 1u);
    // Readback sees the flipped frame and every frame that never arrived.
    const VerifyResult v = port.verifyDownload(bs);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.badFrames, 1 + (bs.frameCount() - applied));
    EXPECT_EQ(port.stats().verifyFailures, v.badFrames);
  }
}

TEST(ConfigPortFaults, ScrubRepairsUpsetsTowardGoldenImage) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  ConfigPort port(dev, prof.port);
  ConfigImage image(dev.configMap().totalBits());
  for (std::uint32_t b = 0; b < 256; b += 7) image.set(b, true);
  port.download(makeFullBitstream(image, dev.configMap().frameBits()));
  ASSERT_EQ(dev.image(), port.expectedImage());

  // Background upsets strike the configuration RAM directly.
  dev.setConfigBit(10, !dev.image().get(10));
  dev.setConfigBit(3000, !dev.image().get(3000));
  const ScrubResult res = port.scrub();
  EXPECT_EQ(res.repairedFrames, 2u);
  EXPECT_EQ(dev.image(), port.expectedImage());
  // A clean device scrubs clean.
  EXPECT_EQ(port.scrub().repairedFrames, 0u);
}

// Flipping bits {k, k+4, k+11, k+16} of a frame adds the CRC-16 generator
// x^16 + x^12 + x^5 + 1 to it, so the frame's CRC stays the same: only a
// comparison of the frames themselves finds the upset.
TEST(ConfigPortFaults, UpsetThatKeepsTheFrameCrcIsFound) {
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  ConfigPort port(dev, prof.port);
  const std::uint32_t frameBits = dev.configMap().frameBits();
  const std::uint32_t frame = 3;
  const std::uint32_t base = frame * frameBits;
  const std::vector<std::uint32_t> pattern = {40, 44, 51, 56};
  ConfigImage upset = dev.image();
  for (std::uint32_t b : pattern) upset.set(base + b, true);
  const std::vector<std::uint32_t> ids{frame};
  ASSERT_EQ(makePartialBitstream(upset, frameBits, ids).crc,
            makePartialBitstream(dev.image(), frameBits, ids).crc);

  // Behind the port's back: the scrubber repairs the frame.
  for (std::uint32_t b : pattern) dev.setConfigBit(base + b, true);
  EXPECT_EQ(port.scrub().repairedFrames, 1u);
  EXPECT_EQ(dev.image(), port.expectedImage());

  // On the wire: readback verification counts the frame as bad.
  const Bitstream bs = makePartialBitstream(dev.image(), frameBits, ids);
  port.setTamperHook([&pattern](const Bitstream&) {
    DownloadTamper t;
    for (std::uint32_t b : pattern) t.flips.push_back({0, b});
    return t;
  });
  port.download(bs);
  EXPECT_EQ(port.verifyDownload(bs).badFrames, 1u);
}

// ---- fault lint -----------------------------------------------------------

TEST(FaultLint, FlagsInconsistentKnobs) {
  analysis::FaultToleranceProfile p;
  p.downloadCorruptRate = 0.2;
  p.meanUpsetsPerScrub = 1.0;
  p.execHangRate = 0.1;
  p.anyStripFailures = true;
  p.verifyDownloads = false;
  p.scrubInterval = 0;
  p.watchdogFactor = 0.0;
  p.garbageCollect = false;
  analysis::Report rep;
  analysis::lintFaultTolerance(p, rep);
  std::vector<std::string> rules;
  for (const auto& d : rep.diagnostics()) rules.push_back(d.rule);
  EXPECT_NE(std::find(rules.begin(), rules.end(), "FT001"), rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "FT003"), rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "FT005"), rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "FT006"), rules.end());
}

TEST(FaultLint, SilentOnSoundConfiguration) {
  analysis::FaultToleranceProfile p;
  p.downloadCorruptRate = 0.2;
  p.meanUpsetsPerScrub = 1.0;
  p.execHangRate = 0.1;
  p.anyStripFailures = true;
  p.verifyDownloads = true;
  p.maxDownloadRetries = 3;
  p.scrubInterval = micros(500);
  p.watchdogFactor = 4.0;
  p.garbageCollect = true;
  analysis::Report rep;
  analysis::lintFaultTolerance(p, rep);
  EXPECT_TRUE(rep.diagnostics().empty());
}

// ---- end-to-end campaigns -------------------------------------------------

struct CampaignEnv {
  Device dev;
  ConfigPort port;
  Compiler compiler;
  explicit CampaignEnv(const DeviceProfile& prof)
      : dev(prof.makeDevice()), port(dev, prof.port), compiler(dev) {}
};

std::vector<ConfigId> registerThree(OsKernel& kernel, Compiler& compiler,
                                    Device& dev) {
  const Region strip = Region::columns(dev.geometry(), 0, 4);
  return {
      kernel.registerConfig(
          compiler.compile(named(lib::makeCounter(6), "count"), strip)),
      kernel.registerConfig(
          compiler.compile(named(lib::makeChecksum(6), "csum"), strip)),
      kernel.registerConfig(
          compiler.compile(named(lib::makeLfsr(8, 0b10111000), "lfsr"), strip)),
  };
}

TaskSpec campaignTask(std::size_t i, ConfigId cfg) {
  TaskSpec t;
  t.name = "ft" + std::to_string(i);
  t.arrival = static_cast<SimTime>(i) * micros(150);
  t.ops = {CpuBurst{micros(30)}, FpgaExec{cfg, 20000 + 5000 * i},
           CpuBurst{micros(20)}};
  return t;
}

/// The CI campaign (same knobs as `vfpga_cli faults --campaign ci`): every
/// fault class fires, every task still finishes, and the recovery path
/// demonstrably did work (repairs, retries, a quarantine relocation).
TEST(FaultCampaign, ScriptedCampaignSurvivesWithRecoveries) {
  fault::FaultPlanSpec spec;
  spec.seed = 7;
  spec.downloadCorruptRate = 0.25;
  spec.downloadAbortRate = 0.15;
  spec.stateCorruptRate = 0.20;
  spec.meanUpsetsPerScrub = 1.5;
  spec.execHangRate = 0.10;
  spec.stripFailures = {{millis(2), 2}, {millis(5), 9}};
  fault::FaultPlan plan(spec);

  CampaignEnv env(mediumPartialProfile());
  Simulation sim;
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  opt.ft.plan = &plan;
  opt.ft.scrubInterval = micros(500);
  opt.ft.recovery = fault::RecoveryOptions{true, 4, micros(50)};
  opt.ft.watchdogFactor = 4.0;
  OsKernel kernel(sim, env.dev, env.port, env.compiler, opt);
  const auto cfgs = registerThree(kernel, env.compiler, env.dev);
  for (std::size_t i = 0; i < 8; ++i) {
    kernel.addTask(campaignTask(i, cfgs[i % 3]));
  }
  kernel.run();
  kernel.checkInvariants();

  for (const TaskRuntime& t : kernel.tasks()) {
    EXPECT_EQ(t.state, TaskState::kDone) << t.spec.name;
  }
  EXPECT_EQ(kernel.metrics().tasksParked, 0u);
  auto c = [&](const char* name) {
    return faultCounter(kernel, opt.policy, name);
  };
  EXPECT_GT(c("vfpga_fault_scrub_repaired_frames_total"), 0u);
  EXPECT_GT(c("vfpga_fault_download_retries_total"), 0u);
  EXPECT_EQ(c("vfpga_fault_strips_quarantined_total"), 2u);
  EXPECT_GE(c("vfpga_fault_quarantine_relocations_total"), 1u);
  EXPECT_GT(c("vfpga_fault_upsets_total"), 0u);
  // The final scrub left the device decodable despite everything.
  EXPECT_TRUE(env.dev.configOk());
}

TEST(FaultCampaign, RetryBudgetExhaustedParksTaskWithDiagnostic) {
  setenv("VFPGA_FLIGHT_DIR", ::testing::TempDir().c_str(), 1);
  fault::FaultPlanSpec spec;
  spec.seed = 11;
  spec.downloadAbortRate = 1.0;  // every transfer truncated, forever
  fault::FaultPlan plan(spec);

  CampaignEnv env(mediumPartialProfile());
  Simulation sim;
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  opt.ft.plan = &plan;
  opt.ft.recovery = fault::RecoveryOptions{true, 0, micros(50)};
  OsKernel kernel(sim, env.dev, env.port, env.compiler, opt);
  const auto cfgs = registerThree(kernel, env.compiler, env.dev);
  kernel.addTask(campaignTask(0, cfgs[0]));
  kernel.run();  // graceful degradation: drains instead of throwing

  EXPECT_EQ(kernel.tasks()[0].state, TaskState::kParked);
  EXPECT_EQ(kernel.metrics().tasksParked, 1u);
  // The park is recorded in the trace for the post-mortem.
  bool recorded = false;
  for (const auto& e : kernel.trace().records()) {
    if (e.detail.find("parked") != std::string::npos) recorded = true;
  }
  EXPECT_TRUE(recorded);
}

TEST(FaultCampaign, WholeDeviceDownloadFailureParksTask) {
  setenv("VFPGA_FLIGHT_DIR", ::testing::TempDir().c_str(), 1);
  fault::FaultPlanSpec spec;
  spec.seed = 5;
  spec.downloadAbortRate = 1.0;
  fault::FaultPlan plan(spec);

  CampaignEnv env(mediumPartialProfile());
  Simulation sim;
  OsOptions opt;
  opt.policy = FpgaPolicy::kDynamicLoading;
  opt.ft.plan = &plan;
  opt.ft.recovery = fault::RecoveryOptions{true, 1, micros(50)};
  OsKernel kernel(sim, env.dev, env.port, env.compiler, opt);
  const auto cfgs = registerThree(kernel, env.compiler, env.dev);
  kernel.addTask(campaignTask(0, cfgs[0]));
  kernel.addTask(campaignTask(1, cfgs[1]));
  kernel.run();

  EXPECT_EQ(kernel.metrics().tasksParked, 2u);
}

TEST(FaultCampaign, StateCorruptionDetectedAndTaskStillFinishes) {
  fault::FaultPlanSpec spec;
  spec.seed = 13;
  spec.stateCorruptRate = 1.0;  // every saved snapshot rots
  fault::FaultPlan plan(spec);

  CampaignEnv env(mediumPartialProfile());
  Simulation sim;
  OsOptions opt;
  opt.policy = FpgaPolicy::kDynamicLoading;
  opt.fpgaSlice = micros(100);  // force preemptions -> state save/restore
  opt.ft.plan = &plan;
  opt.ft.recovery = fault::RecoveryOptions{true, 3, micros(50)};
  OsKernel kernel(sim, env.dev, env.port, env.compiler, opt);
  const auto cfgs = registerThree(kernel, env.compiler, env.dev);
  kernel.addTask(campaignTask(0, cfgs[0]));
  kernel.addTask(campaignTask(1, cfgs[1]));
  kernel.run();

  for (const TaskRuntime& t : kernel.tasks()) {
    EXPECT_EQ(t.state, TaskState::kDone) << t.spec.name;
  }
  // Snapshot rot was caught by the CRC (restarted from initial state
  // rather than resuming with garbage), and each restart is a roll-back
  // that owes the whole op again.
  const std::uint64_t corruptions =
      faultCounter(kernel, opt.policy, "vfpga_fault_state_corruptions_total");
  EXPECT_GT(corruptions, 0u);
  EXPECT_EQ(kernel.metrics().rollbacks, corruptions);
  std::uint64_t taskRollbacks = 0;
  for (const TaskRuntime& t : kernel.tasks()) taskRollbacks += t.rollbacks;
  EXPECT_EQ(taskRollbacks, corruptions);
}

// ---- fuzz under faults ----------------------------------------------------

struct FaultFuzzRun {
  std::uint64_t finished = 0;
  std::uint64_t parked = 0;
  std::vector<SimTime> finishTimes;
  SimTime makespan = 0;
};

FaultFuzzRun runFaultFuzz(FpgaPolicy policy, std::uint64_t seed) {
  fault::FaultPlanSpec spec;
  spec.seed = seed * 1000 + 17;
  spec.downloadCorruptRate = 0.2;
  spec.downloadAbortRate = 0.1;
  spec.stateCorruptRate = 0.2;
  spec.meanUpsetsPerScrub = 1.0;
  spec.execHangRate = 0.05;
  if (policy == FpgaPolicy::kPartitionedVariable) {
    spec.stripFailures = {{millis(3), 5}};
  }
  fault::FaultPlan plan(spec);

  CampaignEnv env(mediumPartialProfile());
  Simulation sim;
  OsOptions opt;
  opt.policy = policy;
  if (policy == FpgaPolicy::kDynamicLoading) opt.fpgaSlice = millis(1);
  opt.ft.plan = &plan;
  opt.ft.scrubInterval = micros(500);
  opt.ft.recovery = fault::RecoveryOptions{true, 3, micros(50)};
  opt.ft.watchdogFactor = 4.0;
  OsKernel kernel(sim, env.dev, env.port, env.compiler, opt);
  const auto cfgs = registerThree(kernel, env.compiler, env.dev);
  (void)cfgs;

  Rng rng(seed);
  workloads::TaskSetParams params;
  params.numTasks = 4 + rng.below(6);
  params.numConfigs = 3;
  params.execsPerTask = 1 + rng.below(3);
  params.minCycles = 1000;
  params.maxCycles = 100000;
  params.meanArrivalGapMs = 0.2 + rng.uniform();
  params.meanCpuBurstMs = 0.05 + rng.uniform() * 0.3;
  params.configZipf = rng.uniform() * 1.5;
  params.oneConfigPerTask = rng.bernoulli(0.5);
  for (auto& ts : workloads::makeTaskSet(params, rng)) {
    kernel.addTask(ts);
  }
  kernel.run();
  kernel.checkInvariants();

  FaultFuzzRun out;
  for (const TaskRuntime& t : kernel.tasks()) {
    if (t.state == TaskState::kDone) ++out.finished;
    if (t.state == TaskState::kParked) ++out.parked;
    out.finishTimes.push_back(t.finish);
  }
  out.makespan = kernel.metrics().makespan;
  // Every task reached a terminal state; nothing leaked out of the state
  // machine even under nonzero fault rates.
  EXPECT_EQ(out.finished + out.parked, kernel.tasks().size());
  EXPECT_TRUE(env.dev.configOk()) << env.dev.elaboration().faults.front();
  return out;
}

class FaultFuzz
    : public ::testing::TestWithParam<std::tuple<FpgaPolicy, std::uint64_t>> {
};

TEST_P(FaultFuzz, InvariantsHoldAndRunsAreDeterministic) {
  const auto [policy, seed] = GetParam();
  const FaultFuzzRun a = runFaultFuzz(policy, seed);
  const FaultFuzzRun b = runFaultFuzz(policy, seed);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.parked, b.parked);
  EXPECT_EQ(a.finishTimes, b.finishTimes);
  EXPECT_EQ(a.makespan, b.makespan);
}

INSTANTIATE_TEST_SUITE_P(
    Campaigns, FaultFuzz,
    ::testing::Combine(::testing::Values(FpgaPolicy::kDynamicLoading,
                                         FpgaPolicy::kPartitionedVariable),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace vfpga
