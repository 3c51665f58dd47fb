// The fault campaign commands, all on the fault-tolerant partitioned
// kernel: faults (seeded fault injection), chaos (kill-restore-verify),
// and heatmap and profile, the occupancy matrix and hierarchical profile
// of the scripted strip-failure campaign.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/equiv/verify.hpp"
#include "analysis/fault_lint.hpp"
#include "cli.hpp"
#include "compile/loaded_circuit.hpp"
#include "core/obs_bridge.hpp"
#include "core/overlay_manager.hpp"
#include "core/page_manager.hpp"
#include "core/segment_manager.hpp"
#include "fault/checkpoint.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"
#include "obs/heatmap.hpp"
#include "obs/profile/flamegraph.hpp"
#include "obs/profile/waterfall.hpp"
#include "sim/rng.hpp"

namespace vfpga::cli {

namespace {

/// Variable partitions, 500 us scrubbing, verified downloads with 4
/// retries 50 us apart, and a 4x watchdog.
OsOptions faultTolerantOptions(fault::FaultPlan& plan) {
  OsOptions opt;
  opt.policy = FpgaPolicy::kPartitionedVariable;
  opt.ft.plan = &plan;
  opt.ft.scrubInterval = micros(500);
  opt.ft.recovery = fault::RecoveryOptions{true, 4, micros(50)};
  opt.ft.watchdogFactor = 4.0;
  return opt;
}

/// A device rig with its own simulation and a kernel on the device.
struct KernelRig : DeviceRig {
  KernelRig(const DeviceProfile& p, const OsOptions& opt)
      : DeviceRig(p), kernel(sim, dev, port, compiler, opt) {}
  Simulation sim;
  OsKernel kernel;
};

/// Compiles the trio and registers it with the kernel.
std::array<ConfigId, 3> registerTrio(OsKernel& kernel, Compiler& compiler) {
  const std::array<CompiledCircuit, 3> trio = compileTrio(compiler);
  return {kernel.registerConfig(trio[0]), kernel.registerConfig(trio[1]),
          kernel.registerConfig(trio[2])};
}

/// Staggered tasks cycling over the trio: task i arrives at i * spacing
/// and runs a CPU burst, the FPGA for cycles + i * cyclesStep, a CPU burst.
struct TaskMix {
  std::size_t tasks;
  SimDuration spacing;
  SimDuration cpuBefore;
  std::uint64_t cycles;
  std::uint64_t cyclesStep;
  SimDuration cpuAfter;
};
constexpr TaskMix kFaultsMix{8, micros(150), micros(30), 20000, 5000,
                             micros(20)};
constexpr TaskMix kChaosMix{8, micros(120), micros(30), 20000, 5000,
                            micros(20)};
/// The scripted campaign's six tasks (see scriptedStripFailures).
constexpr TaskMix kScriptedMix{6, micros(200), micros(25), 15000, 4000,
                               micros(15)};

/// Adds `mix` as tasks named <prefix>0, <prefix>1, ...
void addTasks(OsKernel& kernel, const std::array<ConfigId, 3>& cfgs,
              const char* prefix, const TaskMix& mix) {
  for (std::size_t i = 0; i < mix.tasks; ++i) {
    TaskSpec t;
    t.name = prefix + std::to_string(i);
    t.arrival = static_cast<SimTime>(i) * mix.spacing;
    t.ops = {CpuBurst{mix.cpuBefore},
             FpgaExec{cfgs[i % 3], mix.cycles + mix.cyclesStep * i},
             CpuBurst{mix.cpuAfter}};
    kernel.addTask(std::move(t));
  }
}

/// A fault-injected campaign on the fault-tolerant partitioned kernel.
struct FaultCampaign {
  FaultCampaign(const DeviceProfile& p, const fault::FaultPlanSpec& spec)
      : plan(spec), rig(p, faultTolerantOptions(plan)) {}
  /// Registers the trio, adds `mix` and runs every task to completion.
  void run(const char* prefix, const TaskMix& mix) {
    addTasks(rig.kernel, registerTrio(rig.kernel, rig.compiler), prefix, mix);
    rig.kernel.run();
  }
  fault::FaultPlan plan;
  KernelRig rig;
};

/// The campaign heatmap and profile render (and faults' ci plan): columns
/// 2 and 9 fail permanently at 2 ms and 5 ms.
fault::FaultPlanSpec scriptedStripFailures(std::uint64_t seed) {
  fault::FaultPlanSpec spec;
  spec.seed = seed;
  spec.stripFailures = {{millis(2), 2}, {millis(5), 9}};
  return spec;
}

const char* yn(bool b) { return b ? "yes" : "no"; }

/// The FT-rule check of a campaign's fault plan and kernel knobs before
/// anything runs; `residency` adds the technique-manager fault classes
/// (verification on) that chaos injects.
bool faultKnobsClean(const fault::FaultPlanSpec& spec, const OsOptions& opt,
                     const fault::FaultPlanSpec* residency = nullptr) {
  analysis::FaultToleranceProfile prof;
  prof.downloadCorruptRate = spec.downloadCorruptRate;
  prof.downloadAbortRate = spec.downloadAbortRate;
  prof.stateCorruptRate = spec.stateCorruptRate;
  prof.meanUpsetsPerScrub = spec.meanUpsetsPerScrub;
  prof.execHangRate = spec.execHangRate;
  if (residency != nullptr) {
    prof.overlayStaleReuseRate = residency->overlayStaleReuseRate;
    prof.segmentTableCorruptRate = residency->segmentTableCorruptRate;
    prof.pageResidencyLossRate = residency->pageResidencyLossRate;
    prof.verifyResidency = true;
  }
  prof.anyStripFailures = !spec.stripFailures.empty();
  prof.scrubInterval = opt.ft.scrubInterval;
  prof.verifyDownloads = opt.ft.recovery.verifyDownloads;
  prof.maxDownloadRetries = opt.ft.recovery.maxDownloadRetries;
  prof.watchdogFactor = opt.ft.watchdogFactor;
  prof.garbageCollect = opt.garbageCollect;
  analysis::Report rep;
  analysis::lintFaultTolerance(prof, rep);
  return lintClean(rep);
}

/// --flight-dir: where the flight recorder dumps on a fault.
void applyFlightDir(const Args& a) {
  if (a.has("flight-dir")) {
    setenv("VFPGA_FLIGHT_DIR", a.get("flight-dir").c_str(), 1);
  }
}

}  // namespace

/// Seeded fault-injection campaign against the partitioned kernel: three
/// relocatable circuits, eight staggered tasks, wire corruption/truncation,
/// configuration upsets, scripted permanent strip failures and hangs. The
/// report is byte-identical for a given seed and campaign (the whole stack
/// is deterministic), which is what the CI smoke test pins. --stream
/// writes the campaign as live NDJSON (watch with tail -f); its summary
/// goes to stderr so the survival report stays byte-identical per seed.
/// Exit 0 iff every task finished.
int faultsCmd(const Args& a) {
  const std::uint64_t seed = a.count("seed", 7);
  const std::string campaign = a.get("campaign");
  applyFlightDir(a);

  fault::FaultPlanSpec spec;
  if (campaign == "ci") {
    spec = scriptedStripFailures(seed);
    spec.downloadCorruptRate = 0.25;
    spec.downloadAbortRate = 0.15;
    spec.stateCorruptRate = 0.20;
    spec.meanUpsetsPerScrub = 1.5;
    spec.execHangRate = 0.10;
  } else {  // stress
    spec.seed = seed;
    spec.downloadCorruptRate = 0.40;
    spec.downloadAbortRate = 0.30;
    spec.stateCorruptRate = 0.35;
    spec.meanUpsetsPerScrub = 3.0;
    spec.execHangRate = 0.20;
    spec.stripFailures = {{millis(1), 2}, {millis(3), 7}, {millis(6), 10}};
  }

  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  FaultCampaign fc(p, spec);
  OsKernel& kernel = fc.rig.kernel;
  if (!faultKnobsClean(spec, kernel.options())) return 1;
  LiveStream stream(a);
  if (!stream.ok()) return 3;
  stream.attach(kernel, "os/faults");
  fc.run("ft", kFaultsMix);
  stream.finish("faults");

  std::size_t finished = 0;
  std::size_t parked = 0;
  for (const TaskRuntime& t : kernel.tasks()) {
    if (t.state == TaskState::kDone) ++finished;
    if (t.state == TaskState::kParked) ++parked;
  }
  const fault::FaultCounters& in = fc.plan.counters();
  const ConfigPortStats& ps = fc.rig.port.stats();
  const char* policy = fpgaPolicyName(kernel.options().policy);
  const obs::Labels l = {{"policy", policy}};
  obs::MetricsRegistry& reg = kernel.metricsRegistry();
  auto c = [&](const char* name) {
    return ull(reg.counter(name, l, "").value());
  };

  ReportText r;
  const bool survived = finished == kFaultsMix.tasks && parked == 0;
  r.line("vfpga fault campaign report\n");
  r.line("===========================\n");
  r.line("campaign: %s\nseed: %llu\npolicy: %s\ndevice: %s\n\n",
         campaign.c_str(), ull(seed), policy, p.name.c_str());
  r.line("tasks: %zu   finished: %zu   parked: %zu\n\n", kFaultsMix.tasks,
         finished, parked);
  r.line("injected\n");
  r.line("  corrupted downloads:     %llu\n", ull(in.corruptedDownloads));
  r.line("  aborted downloads:       %llu\n", ull(in.abortedDownloads));
  r.line("  flipped wire bits:       %llu\n", ull(in.flippedBits));
  r.line("  state corruptions:       %llu\n", ull(in.stateCorruptions));
  r.line("  config upsets:           %llu\n", ull(in.upsets));
  r.line("  hung executions:         %llu\n\n", ull(in.hangs));
  r.line("detected\n");
  r.line("  verify failures (frames):%llu\n", ull(ps.verifyFailures));
  r.line("  state CRC failures:      %llu\n\n",
         c("vfpga_fault_state_corruptions_total"));
  r.line("recovered\n");
  r.line("  download retries:        %llu\n",
         c("vfpga_fault_download_retries_total"));
  r.line("  scrub runs:              %llu\n",
         c("vfpga_fault_scrub_runs_total"));
  r.line("  scrub repaired frames:   %llu\n",
         c("vfpga_fault_scrub_repaired_frames_total"));
  r.line("  watchdog preemptions:    %llu\n",
         c("vfpga_fault_watchdog_preemptions_total"));
  r.line("  strips quarantined:      %llu\n",
         c("vfpga_fault_strips_quarantined_total"));
  r.line("  quarantine relocations:  %llu\n\n",
         c("vfpga_fault_quarantine_relocations_total"));
  r.line("makespan: %.3f ms\n", toMilliseconds(kernel.metrics().makespan));
  r.line("survived: %s\n", yn(survived));
  return emitPayload(a, r.str(), survived ? 0 : 1);
}

/// Seeded chaos campaign: prove the stack survives *kernel death*, not
/// just device faults. Three phases, byte-deterministic per seed:
///
///   A  kill-restore-verify — a fault-injected partitioned campaign with
///      durable checkpointing is killed mid-flight (the kernel object is
///      destroyed without finalize, exactly what a crash leaves behind),
///      the on-disk checkpoint slots are then tampered with (truncation,
///      payload bit rot, stale-generation re-stamps), and a fresh kernel
///      on the same directory re-admits every task it can prove intact.
///      Every tampered slot must be rejected by the CRC / version / slot-
///      parity guards AND named by a CK lint rule; recovery must fall
///      back to the previous good generation or park with a diagnostic —
///      never restore silent wrong state.
///   B  bit-exactness — a counter is cut at cycle 23, checkpointed twice,
///      the newest generation is rotted; the restore (forced to fall back
///      to generation 1) relocates to a different strip on a fresh
///      device, proves equivalence, runs the remaining 41 cycles and must
///      match a 64-cycle uninterrupted reference register for register.
///   C  technique-manager residency faults — overlay / segment / page
///      managers run under stale-reuse / table-corruption / residency-
///      loss injection with verification on; every injection must be
///      detected (the silent counters stay zero).
///
/// Exit 0 iff all three phases survive with zero silent wrong state.
int chaosCmd(const Args& a) {
  const std::uint64_t seed = a.count("seed", 7);
  const std::string campaign = a.get("campaign");
  const std::string ckDir = a.get("dir", ".vfpga_chaos");
  applyFlightDir(a);
  // Generation numbering continues from whatever is on disk (that is the
  // point of a durable store), so start from a clean slate — otherwise a
  // second run of the same seed would write different generation numbers
  // and the report would not be byte-identical.
  std::error_code ec;
  std::filesystem::remove_all(ckDir, ec);

  fault::FaultPlanSpec spec;
  spec.seed = seed;
  if (campaign == "ci") {
    spec.downloadCorruptRate = 0.20;
    spec.downloadAbortRate = 0.10;
    spec.stateCorruptRate = 0.15;
    spec.meanUpsetsPerScrub = 1.0;
    spec.execHangRate = 0.05;
  } else {  // stress
    spec.downloadCorruptRate = 0.35;
    spec.downloadAbortRate = 0.25;
    spec.stateCorruptRate = 0.30;
    spec.meanUpsetsPerScrub = 2.5;
    spec.execHangRate = 0.12;
    spec.stripFailures = {{millis(2), 9}};
  }
  fault::FaultPlan plan(spec);
  OsOptions opt = faultTolerantOptions(plan);
  opt.ft.checkpointDir = ckDir;
  opt.ft.checkpointInterval = micros(200);

  // Phase C's residency fault classes, linted up front with the rest.
  fault::FaultPlanSpec mspec;
  mspec.seed = seed + 101;
  mspec.overlayStaleReuseRate = 0.35;
  mspec.segmentTableCorruptRate = 0.35;
  mspec.pageResidencyLossRate = 0.35;
  if (!faultKnobsClean(spec, opt, &mspec)) return 1;

  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  // The serialized header in front of the payload: "VFCK" magic (4) +
  // u16 version + u64 generation + u32 payloadLen.
  constexpr std::size_t kHeader = 18;
  auto readFile = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
  };
  auto writeFile = [](const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };

  // ---- phase A part 1: run to the kill point, then die without finalize.
  const SimTime killAt = millis(1);
  {
    KernelRig rig(p, opt);
    addTasks(rig.kernel, registerTrio(rig.kernel, rig.compiler), "ch",
             kChaosMix);
    rig.kernel.start();
    while (rig.sim.step() && rig.sim.now() < killAt) {
    }
    // Scope exit without finalize(): this is the kernel dying. Whatever
    // reached disk is all the restart gets.
  }

  // ---- phase A part 2: seeded tampering with the checkpoint slots.
  std::uint64_t tamperTruncated = 0;
  std::uint64_t tamperRotten = 0;
  std::uint64_t tamperStale = 0;
  std::uint64_t leftIntact = 0;
  std::size_t diskTasks = 0;
  {
    fault::CheckpointStore store(ckDir);
    Rng rng(seed ^ 0xc5a0c5a0ull);
    for (const std::string& task : store.taskNames()) {
      ++diskTasks;
      const auto lr = store.load(task);
      if (!lr.ok) continue;  // the kill itself already broke this pair
      // Tamper with the *newest* valid generation so recovery must fall
      // back (or, when it was the only slot, park with a diagnostic).
      const auto slot = static_cast<unsigned>(lr.generation & 1);
      const std::string path = store.slotPaths(task)[slot];
      std::vector<std::uint8_t> bytes = readFile(path);
      if (bytes.size() < kHeader + 4) continue;
      // Cycle the corruption class (seeded positions within it) so every
      // run exercises truncation, bit rot, stale generations AND a clean
      // untampered restore.
      switch ((diskTasks - 1 + seed) % 4) {
        case 0:  // truncation (a crash mid-write cut the file short)
          bytes.resize(bytes.size() / 2);
          ++tamperTruncated;
          break;
        case 1: {  // bit rot in the payload (or its trailing CRC)
          const std::size_t idx =
              kHeader + static_cast<std::size_t>(
                            rng.below(bytes.size() - kHeader));
          bytes[idx] ^= static_cast<std::uint8_t>(1 << rng.below(8));
          ++tamperRotten;
          break;
        }
        case 2: {  // stale generation: re-stamp the header out of parity
          const std::uint64_t forged = lr.generation + 1;
          for (int b = 0; b < 8; ++b) {
            bytes[6 + b] = static_cast<std::uint8_t>(forged >> (8 * b));
          }
          ++tamperStale;
          break;
        }
        default:
          ++leftIntact;
          continue;
      }
      writeFile(path, bytes);
    }
  }
  const std::uint64_t tampered =
      tamperTruncated + tamperRotten + tamperStale;

  // ---- phase A part 3: fresh kernel, same directory — restore or reject.
  std::uint64_t detectedSlots = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t parkedDiag = 0;
  std::uint64_t restored = 0;
  std::uint64_t congruenceRejects = 0;
  std::uint64_t ckErrorSlots = 0;
  std::size_t restoredFinished = 0;
  std::size_t restoredParked = 0;
  double restartMakespanMs = 0.0;
  {
    KernelRig rig(p, opt);
    OsKernel& kernel = rig.kernel;
    registerTrio(kernel, rig.compiler);
    fault::CheckpointStore* store = kernel.checkpointStore();
    for (const std::string& task : store->taskNames()) {
      // Per-slot CK lint: every rejected slot must be named by a rule.
      const std::vector<std::string> paths = store->slotPaths(task);
      for (unsigned slot = 0; slot < 2; ++slot) {
        if (!std::filesystem::exists(paths[slot])) continue;
        const fault::DecodeResult dr =
            fault::decodeCheckpoint(readFile(paths[slot]));
        analysis::CheckpointProfile cp;
        cp.magicOk = dr.magicOk;
        cp.versionSupported = dr.versionSupported;
        cp.version = dr.version;
        cp.payloadCrcOk = dr.payloadCrcOk;
        cp.stateCrcOk = dr.stateCrcOk;
        cp.generationParityOk =
            !dr.magicOk || (dr.generation & 1) == slot;
        cp.stateBits = dr.checkpoint.registers.size();
        analysis::Report rep;
        analysis::lintCheckpoint(cp, rep);
        if (!rep.ok()) ++ckErrorSlots;
      }
      const auto lr = store->load(task);
      detectedSlots += lr.corruptSlots;
      if (lr.fellBack) ++fallbacks;
      if (!lr.ok) {
        // No intact generation: a clean, diagnosed park — never a guess.
        ++parkedDiag;
        continue;
      }
      try {
        kernel.restoreTask(lr.checkpoint);
        ++restored;
      } catch (const std::runtime_error&) {
        ++congruenceRejects;
      }
    }
    kernel.run();
    for (const TaskRuntime& t : kernel.tasks()) {
      if (t.state == TaskState::kDone) ++restoredFinished;
      if (t.state == TaskState::kParked) ++restoredParked;
    }
    restartMakespanMs = toMilliseconds(kernel.metrics().makespan);
  }
  const bool phaseA = diskTasks > 0 && restored > 0 &&
                      congruenceRejects == 0 && restoredParked == 0 &&
                      restoredFinished == restored &&
                      detectedSlots >= tampered && ckErrorSlots >= tampered;

  // ---- phase B: bit-exact restore vs an uninterrupted reference.
  bool bitFellBack = false;
  bool equivOk = false;
  bool bitExact = false;
  std::uint64_t bitGen = 0;
  {
    fault::CheckpointStore store(ckDir);
    Device devA = p.makeDevice();
    Compiler ca(devA);
    const CompiledCircuit cc =
        ca.compile(named(lib::makeCounter(6), "bx_counter"),
                   Region::columns(devA.geometry(), 0, 4));
    devA.applyBitstream(cc.fullBitstream());
    LoadedCircuit la(devA, cc);
    la.applyInitialState();
    auto clock = [](LoadedCircuit& lc, int cycles) {
      lc.setInput("en", true);
      lc.setInput("clr", false);
      for (int i = 0; i < cycles; ++i) {
        lc.evaluate();
        lc.tick();
      }
      lc.evaluate();
    };
    clock(la, 23);

    fault::TaskCheckpoint ck;
    ck.task = "bitexact";
    ck.device = std::to_string(devA.geometry().cols) + "x" +
                std::to_string(devA.geometry().rows);
    ck.placementX0 = 0;
    ck.placementWidth = 4;
    fault::CheckpointOp op;
    op.isFpga = true;
    op.config = "bx_counter";
    op.configWidth = 4;
    op.cycles = 41;
    ck.ops = {op};
    ck.registers = la.saveState();
    store.write(ck);
    const auto w2 = store.write(ck);
    {  // rot the newest generation: the load below must fall back
      std::vector<std::uint8_t> bytes = readFile(w2.path);
      bytes[kHeader + (bytes.size() - kHeader) / 2] ^= 0x40;
      writeFile(w2.path, bytes);
    }
    const auto lr = store.load("bitexact");
    bitFellBack = lr.ok && lr.fellBack;
    bitGen = lr.generation;
    if (lr.ok) {
      // Restore onto a *different strip* of a fresh device — the repaired-
      // device path — via pure relocation, proven equivalent before any
      // state is written back.
      Device devB = p.makeDevice();
      Compiler cb(devB);
      const CompiledCircuit cr = cb.relocate(cc, 4);
      devB.applyBitstream(cr.fullBitstream());
      try {
        analysis::equiv::verifyConfiguredOrThrow(devB, cr,
                                                 "chaos bit-exact restore");
        equivOk = true;
      } catch (const std::exception&) {
        equivOk = false;
      }
      if (equivOk) {
        LoadedCircuit lb(devB, cr);
        lb.restoreState(lr.checkpoint.registers);
        clock(lb, 41);
        Device devR = p.makeDevice();
        devR.applyBitstream(cc.fullBitstream());
        LoadedCircuit lref(devR, cc);
        lref.applyInitialState();
        clock(lref, 64);
        bitExact = lb.outputBus("q", 6) == lref.outputBus("q", 6) &&
                   lb.saveState() == lref.saveState();
      }
    }
  }
  const bool phaseB = bitFellBack && bitGen == 1 && equivOk && bitExact;

  // ---- phase C: technique-manager residency fault classes.
  fault::FaultPlan mplan(mspec);
  std::uint64_t ovDet = 0, ovSil = 0;
  std::uint64_t sgDet = 0, sgSil = 0;
  std::uint64_t pgDet = 0, pgSil = 0;
  {
    DeviceRig rig(p);
    const Region strip = Region::columns(rig.dev.geometry(), 0, 4);
    OverlayManager om(rig.dev, rig.port, rig.compiler, 4);
    om.setFaultPlan(&mplan);
    om.installResident(rig.compiler.compile(
        named(lib::makeChecksum(6), "cm_common"), strip));
    const OverlayId o1 = om.addOverlay(
        rig.compiler.compile(named(lib::makeCounter(6), "cm_f1"), strip));
    for (int i = 0; i < 24; ++i) om.invoke(o1);  // 23 hits draw the fault
    ovDet = om.staleReusesDetected();
    ovSil = om.silentStaleReuses();
  }
  {
    DeviceRig rig(p);
    SegmentManager sm(rig.dev, rig.port, rig.compiler, ReplacementPolicy::kLru);
    sm.setFaultPlan(&mplan);
    std::vector<SegmentId> segs;
    for (int i = 0; i < 2; ++i) {
      Netlist nl = lib::makeCounter(6);
      nl.setName("sg" + std::to_string(i));
      segs.push_back(sm.addSegment(rig.compiler.compile(
          nl, Region::columns(rig.dev.geometry(), 0, 5))));
    }
    for (int i = 0; i < 24; ++i) sm.access(segs[i % 2]);
    sgDet = sm.tableCorruptionsDetected();
    sgSil = sm.silentTableCorruptions();
  }
  {
    PageManager pm(p.port, 128, PageManagerOptions{4, 16});
    pm.setFaultPlan(&mplan);
    const ConfigId f = pm.addFunction(10);
    for (int i = 0; i < 24; ++i) pm.access(f);
    pgDet = pm.residencyLossesDetected();
    pgSil = pm.silentResidencyLosses();
  }
  const fault::FaultCounters& mc = mplan.counters();
  const std::uint64_t silentTotal = ovSil + sgSil + pgSil;
  const bool phaseC = silentTotal == 0 && (ovDet + sgDet + pgDet) > 0;

  const bool survived = phaseA && phaseB && phaseC;
  ReportText r;
  r.line("vfpga chaos campaign report\n");
  r.line("===========================\n");
  r.line("campaign: %s\nseed: %llu\ndevice: %s\ncheckpoint dir: %s\n\n",
         campaign.c_str(), ull(seed), p.name.c_str(), ckDir.c_str());
  r.line("phase A: kill-restore-verify (killed at %llu ns)\n", ull(killAt));
  r.line("  tasks with checkpoints on disk: %zu / %zu\n", diskTasks,
         kChaosMix.tasks);
  r.line("  slots tampered:              %llu (truncated %llu, rotten %llu,"
         " stale-gen %llu, intact %llu)\n",
         ull(tampered), ull(tamperTruncated), ull(tamperRotten),
         ull(tamperStale), ull(leftIntact));
  r.line("  corrupt slots detected:      %llu\n", ull(detectedSlots));
  r.line("  CK-lint flagged slots:       %llu\n", ull(ckErrorSlots));
  r.line("  fallbacks to older gen:      %llu\n", ull(fallbacks));
  r.line("  parked with diagnostic:      %llu\n", ull(parkedDiag));
  r.line("  congruence rejections:       %llu\n", ull(congruenceRejects));
  r.line("  tasks restored:              %llu\n", ull(restored));
  r.line("  restored tasks finished:     %zu (parked %zu)\n",
         restoredFinished, restoredParked);
  r.line("  restart makespan:            %.3f ms\n", restartMakespanMs);
  r.line("  phase survived:              %s\n\n", yn(phaseA));
  r.line("phase B: bit-exact restore (fallback + relocation)\n");
  r.line("  fell back past rotten gen:   %s (restored generation %llu)\n",
         yn(bitFellBack), ull(bitGen));
  r.line("  equivalence proof:           %s\n", yn(equivOk));
  r.line("  registers match reference:   %s\n", yn(bitExact));
  r.line("  phase survived:              %s\n\n", yn(phaseB));
  r.line("phase C: manager residency faults (verification on)\n");
  r.line("  overlay stale reuses:        injected %llu detected %llu"
         " silent %llu\n",
         ull(mc.staleOverlayReuses), ull(ovDet), ull(ovSil));
  r.line("  segment table corruptions:   injected %llu detected %llu"
         " silent %llu\n",
         ull(mc.segmentTableCorruptions), ull(sgDet), ull(sgSil));
  r.line("  page residency losses:       injected %llu detected %llu"
         " silent %llu\n",
         ull(mc.pageResidencyLosses), ull(pgDet), ull(pgSil));
  r.line("  phase survived:              %s\n\n", yn(phaseC));
  r.line("silent wrong state: %llu\n", ull(silentTotal));
  r.line("survived: %s\n", yn(survived));
  return emitPayload(a, r.str(), survived ? 0 : 1);
}

/// Deterministic partitioned workload with scripted permanent strip
/// failures: every allocator mutation (allocate / release / relocate /
/// quarantine) appends one row to the per-column occupancy matrix. The
/// whole stack is seeded and event-driven, so the CSV/JSON/HTML renders
/// are byte-identical for a given seed and device — the determinism ctest
/// runs the command twice and compares.
int heatmapCmd(const Args& a) {
  const std::string fmt = a.get("format");
  DeviceProfile p = profileByName(a.get("device", "medium_partial"));
  FaultCampaign fc(p, scriptedStripFailures(a.count("seed", 7)));
  obs::HeatmapCollector heatmap(
      static_cast<std::uint16_t>(fc.rig.dev.geometry().cols));
  fc.rig.kernel.attachHeatmap(&heatmap);
  fc.run("hm", kScriptedMix);

  std::fprintf(stderr, "heatmap: %zu samples x %u columns\n",
               heatmap.samples().size(), heatmap.columns());
  const std::string payload =
      fmt == "csv"    ? heatmap.renderCsv()
      : fmt == "json" ? heatmap.renderJson()
                      : heatmap.renderHtml("vfpga occupancy - " + p.name);
  return emitPayload(a, payload);
}

/// Hierarchical profile of a seeded two-phase campaign. Phase 1 drives the
/// three report circuits on a probe-instrumented device for --cycles clock
/// cycles each, sampling per-LUT evaluations, net toggles and switchbox
/// traversals into the hot-cone report. Phase 2 reruns the heatmap
/// fault-recovery campaign under the partitioned kernel and folds its span
/// tree into the task waterfall, the per-task resource ledger, and (for
/// --format collapsed|speedscope) a flamegraph. Everything downstream of
/// the seed is event-driven, so all four formats are byte-identical per
/// seed — the determinism ctest runs the command twice and compares.
/// Exit 0 iff the profile is complete: every task produced spans and (when
/// the activity section is selected) the probe saw fabric activity.
int profileCmd(const Args& a) {
  const std::string fmt = a.get("format");
  const bool flame = fmt == "collapsed" || fmt == "speedscope";
  // Section selectors; none selected = the full profile. The flamegraph
  // formats render the span tree itself and ignore the selectors.
  const bool selActivity = a.has("activity");
  const bool selWaterfall = a.has("waterfall");
  const bool selLedger = a.has("ledger");
  const bool allSections = !selActivity && !selWaterfall && !selLedger;
  const std::uint64_t topk = a.count("top", 10);
  const std::uint64_t seed = a.count("seed", 7);

  DeviceProfile p = profileByName(a.get("device", "medium_partial"));

  // Phase 1: fabric activity under real evaluation, on a dedicated device
  // so the campaign below starts from a blank fabric.
  obs::profile::ActivityAggregator activity;
  if (!flame && (allSections || selActivity)) {
    Device dev = p.makeDevice();
    Compiler compiler(dev);
    ActivityProbe probe;
    dev.attachActivityProbe(&probe);
    const std::uint64_t cycles = a.count("cycles", 256);
    Rng rng(seed);
    for (const CompiledCircuit& c : compileTrio(compiler)) {
      dev.applyBitstream(c.fullBitstream());
      LoadedCircuit lc(dev, c);
      lc.applyInitialState();
      for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
        for (const PortBinding& pb : c.ports) {
          if (pb.isInput) lc.setInput(pb.name, rng.bernoulli(0.5));
        }
        dev.evaluate();
        dev.tick();
      }
    }
    collectActivity(probe, activity);
  }

  // Phase 2: the heatmap campaign — scripted strip failures, scrubbing,
  // quarantine recovery — whose span tree feeds the waterfall/ledger.
  FaultCampaign fc(p, scriptedStripFailures(seed));
  fc.run("pf", kScriptedMix);
  OsKernel& kernel = fc.rig.kernel;

  const std::vector<std::string> names = taskTrackNames(kernel);
  const obs::profile::WaterfallReport wf =
      obs::profile::buildWaterfall(kernel.spanTracer(), names);
  obs::profile::ResourceLedger ledger = buildLedger(kernel);
  ledger.publish(kernel.metricsRegistry());

  const bool complete =
      wf.complete &&
      (flame || !(allSections || selActivity) || activity.totalEvals() > 0);
  std::fprintf(stderr,
               "profile: %zu sites, %llu evals, %zu tasks, makespan %llu ns,"
               " critical %s, %s\n",
               activity.siteCount(), ull(activity.totalEvals()),
               wf.tasks.size(), ull(wf.makespanNs),
               wf.total.criticalPhase(), complete ? "complete" : "INCOMPLETE");

  std::string payload;
  if (flame) {
    obs::profile::FlamegraphInput input;
    input.tracer = &kernel.spanTracer();
    input.processName = "os/partitioned_variable";
    input.trackNames = names;
    payload = fmt == "collapsed"
                  ? renderCollapsedStacks(input)
                  : renderSpeedscope(input, "vfpga profile - " + p.name);
  } else if (fmt == "json") {
    std::ostringstream os;
    os << "{";
    bool first = true;
    auto section = [&os, &first](const char* key, const std::string& body) {
      os << (first ? "" : ",") << "\n\"" << key << "\":" << body;
      first = false;
    };
    if (allSections || selActivity) {
      section("activity", activity.renderJson(topk));
    }
    if (allSections || selWaterfall) section("waterfall", renderJson(wf));
    if (allSections || selLedger) section("ledger", ledger.renderJson());
    os << "}\n";
    payload = os.str();
  } else {
    std::ostringstream os;
    if (allSections || selActivity) {
      os << activity.renderText(topk) << "\n";
    }
    if (allSections || selWaterfall) os << renderText(wf) << "\n";
    if (allSections || selLedger) os << ledger.renderText();
    payload = os.str();
  }
  return emitPayload(a, payload, complete ? 0 : 1);
}

}  // namespace vfpga::cli
