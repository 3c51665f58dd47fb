#include "core/os_kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "analysis/equiv/verify.hpp"
#include "analysis/kernel_check.hpp"
#include "core/circuit_io.hpp"
#include "core/obs_bridge.hpp"

namespace vfpga {

const char* fpgaPolicyName(FpgaPolicy p) {
  switch (p) {
    case FpgaPolicy::kSoftwareOnly: return "software_only";
    case FpgaPolicy::kExclusive: return "exclusive_fifo";
    case FpgaPolicy::kDynamicLoading: return "dynamic_loading";
    case FpgaPolicy::kPartitionedFixed: return "partitioned_fixed";
    case FpgaPolicy::kPartitionedVariable: return "partitioned_variable";
  }
  return "unknown";
}

namespace {
obs::Labels policyLabels(FpgaPolicy p) {
  return {{"policy", fpgaPolicyName(p)}};
}

/// Span track of task t (track 0 is the kernel's own).
std::uint32_t trackOf(std::size_t t) {
  return static_cast<std::uint32_t>(t) + 1;
}
}  // namespace

OsKernel::OsKernel(Simulation& sim, Device& device, ConfigPort& port,
                   Compiler& compiler, OsOptions options)
    : sim_(&sim), dev_(&device), port_(&port), compiler_(&compiler),
      options_(std::move(options)), registry_(device),
      loader_(device, port, registry_),
      spans_(obs::SpanTracer::Clock([this] { return sim_->now(); })),
      cTasksFinished_(metricsRegistry_.counter(
          "vfpga_os_tasks_finished_total", policyLabels(options_.policy),
          "Tasks run to completion")),
      sWaitTime_(metricsRegistry_.stats(
          "vfpga_os_task_wait_ns", policyLabels(options_.policy),
          "Per-task time blocked waiting for the FPGA")),
      sTurnaround_(metricsRegistry_.stats(
          "vfpga_os_task_turnaround_ns", policyLabels(options_.policy),
          "Per-task arrival-to-finish time")),
      gMakespan_(metricsRegistry_.gauge(
          "vfpga_os_makespan_ns", policyLabels(options_.policy),
          "Finish time of the last task")),
      cFpgaGrants_(metricsRegistry_.counter(
          "vfpga_os_fpga_grants_total", policyLabels(options_.policy),
          "FPGA grants (whole device, partition or service)")),
      cFpgaPreemptions_(metricsRegistry_.counter(
          "vfpga_os_fpga_preemptions_total", policyLabels(options_.policy),
          "Executions preempted on the slice boundary")),
      cRollbacks_(metricsRegistry_.counter(
          "vfpga_os_rollbacks_total", policyLabels(options_.policy),
          "Executions restarted from scratch (no state save)")),
      cFpgaComputeNs_(metricsRegistry_.counter(
          "vfpga_os_fpga_compute_ns_total", policyLabels(options_.policy),
          "Simulated time circuits actually computed")),
      cConfigNs_(metricsRegistry_.counter(
          "vfpga_os_config_download_ns_total", policyLabels(options_.policy),
          "Simulated time spent downloading configurations")),
      cStateMoveNs_(metricsRegistry_.counter(
          "vfpga_os_state_move_ns_total", policyLabels(options_.policy),
          "Simulated time spent on register state save/restore")),
      cDownloads_(metricsRegistry_.counter(
          "vfpga_os_config_downloads_total", policyLabels(options_.policy),
          "Configuration downloads")),
      gBitsDownloaded_(metricsRegistry_.gauge(
          "vfpga_os_bits_downloaded", policyLabels(options_.policy),
          "Bits written through the configuration port")),
      cPartitionsCreated_(metricsRegistry_.counter(
          "vfpga_os_partitions_created_total", policyLabels(options_.policy),
          "Partition loads performed")),
      gGarbageCollections_(metricsRegistry_.gauge(
          "vfpga_os_garbage_collections", policyLabels(options_.policy),
          "Compaction (garbage-collection) runs")),
      gRelocations_(metricsRegistry_.gauge(
          "vfpga_os_relocations", policyLabels(options_.policy),
          "Resident circuits moved by compaction")) {
  flight_.attachTrace(&trace_);
  flight_.attachRegistry(&metricsRegistry_);
  flight_.attachSpans(&spans_);
  // Boot blank, golden image included, so no scrub restores the old bits.
  dev_->clearConfig();
  port_->resyncExpected();
  if (options_.policy == FpgaPolicy::kPartitionedFixed ||
      options_.policy == FpgaPolicy::kPartitionedVariable) {
    PartitionManagerOptions po;
    po.fit = options_.fit;
    po.garbageCollect = options_.garbageCollect;
    if (options_.ft.plan) {
      po.recovery = options_.ft.recovery;
      po.plan = options_.ft.plan;
    }
    if (options_.policy == FpgaPolicy::kPartitionedFixed) {
      if (options_.fixedWidths.empty()) {
        throw std::invalid_argument(
            "kPartitionedFixed needs fixedWidths (the system configuration "
            "file of §4)");
      }
      po.fixedWidths = options_.fixedWidths;
    }
    pm_.emplace(device, port, registry_, compiler, po);
    pm_->setTraceSink([this](TraceKind k, std::string detail) {
      trace_.record(sim_->now(), k, std::move(detail));
    });
  }
  if (options_.ft.plan) {
    bindFaultMetrics();
    loader_.setFaultPlan(options_.ft.plan);
    loader_.setRecovery(options_.ft.recovery);
    port_->setTamperHook([plan = options_.ft.plan](const Bitstream& bs) {
      return plan->tamperDownload(bs);
    });
  }
  if (!options_.ft.checkpointDir.empty()) {
    ckpt_ = std::make_unique<fault::CheckpointStore>(options_.ft.checkpointDir);
    bindCheckpointMetrics();
  }
}

OsKernel::~OsKernel() {
  // The port may outlive this kernel (sequential kernels share one port);
  // do not leave a hook referencing a dead fault plan behind.
  if (options_.ft.plan) port_->setTamperHook(nullptr);
}

void OsKernel::bindFaultMetrics() {
  const obs::Labels l = policyLabels(options_.policy);
  auto bind = [&](const char* name, const char* help) {
    return &metricsRegistry_.counter(name, l, help);
  };
  fm_.upsets = bind("vfpga_fault_upsets_total",
                    "Configuration upsets injected by the fault plan");
  fm_.scrubRuns = bind("vfpga_fault_scrub_runs_total",
                       "Readback scrub passes over the device");
  fm_.scrubRepairs = bind("vfpga_fault_scrub_repaired_frames_total",
                          "Configuration frames repaired by the scrubber");
  fm_.retries = bind("vfpga_fault_download_retries_total",
                     "Configuration downloads retried after verify failure");
  fm_.aborts = bind("vfpga_fault_download_aborts_total",
                    "Configuration transfers truncated on the wire");
  fm_.verifyFailures = bind("vfpga_fault_verify_failures_total",
                            "Frames that failed post-download verification");
  fm_.stateCorruptions = bind("vfpga_fault_state_corruptions_total",
                              "Saved snapshots rejected by their CRC");
  fm_.watchdogPreempts = bind("vfpga_fault_watchdog_preemptions_total",
                              "Hung executions preempted by the watchdog");
  fm_.quarantines = bind("vfpga_fault_strips_quarantined_total",
                         "Device strips quarantined after permanent failure");
  fm_.quarantineRelocations =
      bind("vfpga_fault_quarantine_relocations_total",
           "Circuits relocated off a failing strip");
  fm_.parked = bind("vfpga_fault_tasks_parked_total",
                    "Tasks permanently parked after unrecoverable faults");
  fm_.healed = bind("vfpga_fault_strips_healed_total",
                    "Quarantined strips recovered after a transient fault");
  fm_.scrubDeferred =
      bind("vfpga_fault_scrub_deferred_total",
           "Scrub passes deferred because the configuration port was busy");
}

void OsKernel::bindCheckpointMetrics() {
  const obs::Labels l = policyLabels(options_.policy);
  auto bind = [&](const char* name, const char* help) {
    return &metricsRegistry_.counter(name, l, help);
  };
  fm_.ckptWritten = bind("vfpga_fault_checkpoint_written_total",
                         "Durable task checkpoints written");
  fm_.ckptBytes = bind("vfpga_fault_checkpoint_bytes_total",
                       "Bytes written to the checkpoint store");
  fm_.ckptRestores = bind("vfpga_fault_checkpoint_restores_total",
                          "Tasks re-admitted from a durable checkpoint");
  fm_.ckptCorruptions =
      bind("vfpga_fault_checkpoint_corruptions_total",
           "Checkpoint slots rejected by CRC/version/parity guards");
  fm_.ckptFallbacks =
      bind("vfpga_fault_checkpoint_fallbacks_total",
           "Restores served by an older generation past a corrupt slot");
}

const OsMetrics& OsKernel::metrics() const {
  OsMetrics m;
  m.tasksFinished = cTasksFinished_.value();
  m.waitTime = sWaitTime_.stats();
  m.turnaround = sTurnaround_.stats();
  m.makespan = static_cast<SimTime>(gMakespan_.value());
  m.fpgaGrants = cFpgaGrants_.value();
  m.fpgaPreemptions = cFpgaPreemptions_.value();
  m.rollbacks = cRollbacks_.value();
  m.fpgaComputeTime = cFpgaComputeNs_.value();
  m.configTime = cConfigNs_.value();
  m.stateMoveTime = cStateMoveNs_.value();
  m.downloads = cDownloads_.value();
  m.bitsDownloaded = static_cast<std::uint64_t>(gBitsDownloaded_.value());
  m.partitionsCreated = cPartitionsCreated_.value();
  m.garbageCollections =
      static_cast<std::uint64_t>(gGarbageCollections_.value());
  m.relocations = static_cast<std::uint64_t>(gRelocations_.value());
  m.tasksParked = fm_.parked != nullptr ? fm_.parked->value() : 0;
  metricsView_ = m;
  return metricsView_;
}

ConfigId OsKernel::registerConfig(std::shared_ptr<const StoredCircuit> entry) {
  if (started_) throw std::logic_error("register configs before run()");
  return registry_.add(std::move(entry));
}

ConfigId OsKernel::registerConfig(CompiledCircuit circuit) {
  return registerConfig(
      std::make_shared<const StoredCircuit>(std::move(circuit), *dev_));
}

std::vector<std::uint64_t> OsKernel::linksFor(ConfigId id) const {
  const std::uint64_t span = compileSpanOf(id);
  if (span == 0) return {};
  return {span};
}

void OsKernel::attachHeatmap(obs::HeatmapCollector* heatmap) {
  if (!pm_) {
    throw std::logic_error("occupancy heatmap needs a partitioned policy");
  }
  if (heatmap == nullptr) {
    pm_->setOccupancyObserver(nullptr);
    return;
  }
  pm_->setOccupancyObserver([this, heatmap](const char* event) {
    heatmap->sample(sim_->now(), event, occupancyCells(pm_->allocator()));
  });
  // Starting row so the matrix opens with the pristine strip table.
  heatmap->sample(sim_->now(), "start", occupancyCells(pm_->allocator()));
}

SimDuration OsKernel::installService(ConfigId id) {
  if (!pm_) {
    throw std::logic_error(
        "services (device-driver configurations) need a partitioned policy");
  }
  if (started_) throw std::logic_error("install services before run()");
  if (serviceFor(id) != nullptr) {
    throw std::logic_error("service already installed");
  }
  auto load = pm_->load(id);
  if (!load) {
    throw std::logic_error("no partition available for service " +
                           registry_.circuit(id).name);
  }
  pm_->pin(load->partition);
  cConfigNs_ += load->cost;
  ++cDownloads_;
  trace_.record(sim_->now(), TraceKind::kPartitionAssign,
                "service " + registry_.circuit(id).name);
  services_.push_back(Service{id, false, {}});
  return load->cost;
}

OsKernel::Service* OsKernel::serviceFor(ConfigId id) {
  for (Service& s : services_) {
    if (s.config == id) return &s;
  }
  return nullptr;
}

void OsKernel::dispatchService(Service& svc) {
  if (svc.busy || svc.queue.empty()) return;
  const std::size_t t = svc.queue.front();
  svc.queue.pop_front();
  svc.busy = true;
  grant(t, sim_->now());
  // No download: the whole point of the resident driver circuit.
  ++task(t).configHits;
  const SimDuration execTime = startExec(t, task(t).cyclesRemaining,
                                         "os.service", sim_->now(), 0, {});
  // A request to the shared driver draws no hang.
  arm(t, sim_->now(), execTime, 0, false);
}

void OsKernel::addTask(TaskSpec spec) {
  // Validate configuration references up front.
  for (const TaskOp& op : spec.ops) {
    if (const auto* fx = std::get_if<FpgaExec>(&op)) {
      if (fx->config >= registry_.size()) {
        throw std::out_of_range("task references unregistered config");
      }
      if (pm_ && serviceFor(fx->config) == nullptr &&
          !pm_->feasible(fx->config)) {
        throw std::logic_error("config can never fit any partition: " +
                               registry_.circuit(fx->config).name);
      }
    }
  }
  const std::size_t t = tasks_.size();
  tasks_.push_back(TaskRuntime{std::move(spec)});
  sim_->scheduleAt(tasks_[t].spec.arrival, [this, t] { onArrive(t); });
}

void OsKernel::checkInvariants() const {
  analysis::Report rep;
  analysis::verifyTasks(tasks_, rep);
  // The deques are copied into dense vectors for the span-based verifier;
  // this path only runs under VFPGA_CHECK_INVARIANTS.
  const std::vector<std::size_t> ready(cpuReady_.begin(), cpuReady_.end());
  std::vector<std::size_t> waiting(fpgaWaiting_.begin(), fpgaWaiting_.end());
  for (const Service& svc : services_) {
    waiting.insert(waiting.end(), svc.queue.begin(), svc.queue.end());
  }
  analysis::verifyTaskQueues(tasks_, ready, waiting, rep);
  std::vector<analysis::SnapshotInfo> snapshots;
  for (const auto& [owner, snap] : loader_.snapshots()) {
    snapshots.push_back({owner, snap.config});
  }
  analysis::verifySnapshots(tasks_, snapshots, rep);
  analysis::throwIfErrors(rep, "OsKernel");
  if (pm_) pm_->checkInvariants();
}

void OsKernel::run() {
  try {
    start();
    if (analysis::invariantChecksEnabled()) {
      while (sim_->step()) checkInvariants();
    } else {
      sim_->run();
    }
    finalize();
  } catch (const analysis::InvariantViolation& v) {
    dumpFlight(flight_, v);
    throw;
  }
}

void OsKernel::setMonitorTick(SimDuration interval,
                              std::function<void(SimTime)> hook) {
  if (started_) {
    throw std::logic_error("setMonitorTick must be called before start()");
  }
  monitorInterval_ = interval;
  monitorHook_ = std::move(hook);
}

bool OsKernel::allTasksTerminal() const {
  return std::all_of(tasks_.begin(), tasks_.end(),
                     [](const TaskRuntime& tr) { return tr.terminal(); });
}

void OsKernel::monitorTick() {
  const bool allDone = allTasksTerminal();
  if (monitorHook_) monitorHook_(sim_->now());
  // One final sample once everything is terminal, then stop rescheduling
  // so the simulation can drain (same idiom as scrubTick).
  if (allDone) return;
  sim_->scheduleAfter(monitorInterval_, [this] { monitorTick(); });
}

fault::HealthInputs OsKernel::healthInputs() const {
  fault::HealthInputs hi;
  if (pm_) {
    const PartitionManager::FtStats& fs = pm_->ftStats();
    hi.quarantinedStrips = fs.quarantinedStrips;
    hi.quarantineRelocations = fs.quarantineRelocations;
    hi.healedStrips = fs.stripsHealed;
    hi.downloadRetries += fs.downloadRetries;
    hi.stateCrcFailures += fs.stateCrcFailures;
  }
  hi.downloadRetries += loader_.stats().downloadRetries;
  hi.stateCrcFailures += loader_.stats().stateCrcFailures;
  hi.verifyFailures = port_->stats().verifyFailures;
  // The scrub/watchdog families are counted live (bound only with a fault
  // plan; without one those sources cannot fire).
  if (fm_.scrubRepairs != nullptr) {
    hi.scrubRepairs = fm_.scrubRepairs->value();
  }
  if (fm_.watchdogPreempts != nullptr) {
    hi.watchdogPreempts = fm_.watchdogPreempts->value();
  }
  for (const TaskRuntime& tr : tasks_) {
    if (tr.state == TaskState::kParked) ++hi.parkedTasks;
  }
  return hi;
}

void OsKernel::start() {
  started_ = true;
  if (ckpt_ && options_.ft.checkpointInterval > 0) {
    sim_->scheduleAfter(options_.ft.checkpointInterval,
                        [this] { checkpointTick(); });
  }
  if (monitorHook_ && monitorInterval_ > 0) {
    sim_->scheduleAfter(monitorInterval_, [this] { monitorTick(); });
  }
  if (options_.ft.plan) {
    if (options_.ft.scrubInterval > 0) {
      sim_->scheduleAfter(options_.ft.scrubInterval, [this] { scrubTick(); });
    }
    if (pm_) {
      for (const auto& ev : options_.ft.plan->spec().stripFailures) {
        const std::uint16_t col = ev.column;
        sim_->scheduleAt(ev.at, [this, col] { onStripFailure(col); });
        if (ev.healAfter > 0) {
          sim_->scheduleAt(ev.at + ev.healAfter,
                           [this, col] { onStripHeal(col); });
        }
      }
    }
  }
}

void OsKernel::finalize() {
  if (options_.ft.plan) {
    // One final scrub pass leaves the configuration RAM consistent with
    // the golden image (post-run configOk asserts rely on it), then fold
    // the subsystem counters into the vfpga_fault_* families once — the
    // retry/abort totals live in the port/loader/manager stats until here.
    const ScrubResult res = port_->scrub();
    *fm_.scrubRuns += 1;
    *fm_.scrubRepairs += res.repairedFrames;
    const fault::HealthInputs hi = healthInputs();
    *fm_.retries += hi.downloadRetries;
    *fm_.stateCorruptions += hi.stateCrcFailures;
    *fm_.aborts += port_->stats().abortedDownloads;
    *fm_.verifyFailures += hi.verifyFailures;
    *fm_.quarantines += hi.quarantinedStrips;
    *fm_.quarantineRelocations += hi.quarantineRelocations;
  }
  if (ckpt_) {
    // Fold the store's validation verdicts into the checkpoint families
    // (write/restore totals were counted live; corruptions and fallbacks
    // accrue inside the store's load path).
    const fault::CheckpointStore::Stats& cs = ckpt_->stats();
    *fm_.ckptCorruptions += cs.corruptSlots;
    *fm_.ckptFallbacks += cs.fallbacks;
  }
  gBitsDownloaded_.set(static_cast<double>(port_->stats().bitsWritten));
  if (pm_) {
    gRelocations_.set(static_cast<double>(pm_->relocations()));
    gGarbageCollections_.set(static_cast<double>(pm_->garbageCollections()));
  }
  for (const TaskRuntime& t : tasks_) {
    if (!t.terminal()) {
      throw std::logic_error("simulation drained with unfinished task " +
                             t.spec.name);
    }
  }
}

const FpgaExec& OsKernel::currentExec(std::size_t t) const {
  return std::get<FpgaExec>(tasks_[t].spec.ops[tasks_[t].opIndex]);
}

SimDuration OsKernel::execDuration(const FpgaExec& fx,
                                   std::uint64_t cycles) const {
  return cycles * clockPeriod(fx.config);
}

void OsKernel::onArrive(std::size_t t) {
  trace_.record(sim_->now(), TraceKind::kTaskArrive, task(t).spec.name);
  task(t).state = TaskState::kReady;
  if (task(t).spec.ops.empty()) {
    finishTask(t);
    return;
  }
  enterOp(t);
}

/// Sets up execution of the current op (called on op entry only).
void OsKernel::enterOp(std::size_t t) {
  TaskRuntime& tr = task(t);
  const TaskOp& op = tr.spec.ops[tr.opIndex];
  if (const auto* cb = std::get_if<CpuBurst>(&op)) {
    tr.cpuRemaining = cb->duration;
    makeCpuReady(t);
    return;
  }
  const FpgaExec& fx = std::get<FpgaExec>(op);
  tr.cyclesRemaining = fx.cycles;
  if (options_.policy == FpgaPolicy::kSoftwareOnly) {
    // Execute the algorithm in software on the CPU instead (§4:
    // "software programming of the algorithm should be considered").
    const double ns = static_cast<double>(execDuration(fx, fx.cycles)) *
                      options_.softwareSlowdown;
    tr.cpuRemaining = static_cast<SimDuration>(std::llround(ns));
    // The whole execution runs in software; nothing remains for the
    // fabric (cyclesRemaining only tracks FPGA work still owed).
    tr.cyclesRemaining = 0;
    makeCpuReady(t);
    return;
  }
  submitFpga(t);
}

void OsKernel::opComplete(std::size_t t) {
  TaskRuntime& tr = task(t);
  ++tr.opIndex;
  if (tr.opIndex >= tr.spec.ops.size()) {
    finishTask(t);
    return;
  }
  enterOp(t);
}

void OsKernel::finishTask(std::size_t t) {
  TaskRuntime& tr = task(t);
  tr.state = TaskState::kDone;
  tr.finish = sim_->now();
  trace_.record(sim_->now(), TraceKind::kTaskFinish, tr.spec.name);
  ++cTasksFinished_;
  sWaitTime_.observe(static_cast<double>(tr.fpgaWaitTotal));
  sTurnaround_.observe(static_cast<double>(tr.finish - tr.spec.arrival));
  gMakespan_.setMax(static_cast<double>(tr.finish));
}

// --------------------------------------------------------------------- CPU

void OsKernel::makeCpuReady(std::size_t t) {
  task(t).state = TaskState::kReady;
  cpuReady_.push_back(t);
  dispatchCpu();
}

std::size_t OsKernel::popNext(std::deque<std::size_t>& queue) {
  std::size_t bestPos = 0;
  if (options_.priorityScheduling) {
    for (std::size_t i = 1; i < queue.size(); ++i) {
      if (tasks_[queue[i]].spec.priority >
          tasks_[queue[bestPos]].spec.priority) {
        bestPos = i;
      }
    }
  }
  const std::size_t t = queue[bestPos];
  queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(bestPos));
  return t;
}

void OsKernel::dispatchCpu() {
  if (cpuRunning_ || cpuReady_.empty()) return;
  const std::size_t t = popNext(cpuReady_);
  cpuRunning_ = t;
  TaskRuntime& tr = task(t);
  tr.state = TaskState::kRunningCpu;
  trace_.record(sim_->now(), TraceKind::kTaskDispatch, tr.spec.name);
  const SimDuration slice = options_.cpuTimeSlice == 0
                                ? tr.cpuRemaining
                                : std::min(options_.cpuTimeSlice,
                                           tr.cpuRemaining);
  sim_->scheduleAfter(slice, [this, t, slice] {
    TaskRuntime& tr2 = task(t);
    tr2.cpuRemaining -= slice;
    cpuRunning_.reset();
    if (tr2.cpuRemaining == 0) {
      opComplete(t);
    } else {
      trace_.record(sim_->now(), TraceKind::kTaskPreempt, tr2.spec.name);
      tr2.state = TaskState::kReady;
      cpuReady_.push_back(t);
    }
    dispatchCpu();
  });
}

// ------------------------------------------------ FPGA execution lifecycle

void OsKernel::startFpgaWait(std::size_t t) {
  TaskRuntime& tr = task(t);
  tr.state = TaskState::kWaitingFpga;
  tr.fpgaWaitStart = sim_->now();
  trace_.record(sim_->now(), TraceKind::kTaskBlock, tr.spec.name);
}

void OsKernel::chargeFpgaWait(std::size_t t, SimTime until) {
  TaskRuntime& tr = task(t);
  const SimDuration waited = until - tr.fpgaWaitStart;
  tr.fpgaWaitTotal += waited;
  if (waited > 0) {
    // Waterfall phase mark: the admission/FPGA wait that just ended. An
    // instant, not a span — exec spans are recorded optimistically at
    // dispatch, so a post-preemption re-wait span would partially overlap
    // them and fail the Chrome-trace validator (same convention as
    // os.stall).
    spans_.instantAt(until, "wait", "os.wait",
                     {{"wait_ns", std::to_string(waited)}}, trackOf(t));
  }
}

void OsKernel::submitFpga(std::size_t t) {
  const ConfigId config = currentExec(t).config;
  if (Service* svc = serviceFor(config)) {
    startFpgaWait(t);
    svc->queue.push_back(t);
    dispatchService(*svc);
    return;
  }
  if (pm_ && options_.ft.plan && !pm_->feasible(config)) {
    // Quarantines since addTask() shrank the device below this circuit.
    parkTask(t, "configuration no longer fits the degraded device");
    return;
  }
  requeueFpga(t);
  dispatchFpga();
}

void OsKernel::requeueFpga(std::size_t t) {
  startFpgaWait(t);
  fpgaWaiting_.push_back(t);
}

void OsKernel::dispatchFpga() {
  if (pm_) {
    tryDispatchPartitioned();
  } else {
    dispatchWholeDevice();
  }
}

void OsKernel::grant(std::size_t t, SimTime waitEnd) {
  chargeFpgaWait(t, waitEnd);
  TaskRuntime& tr = task(t);
  tr.state = TaskState::kRunningFpga;
  ++tr.grants;
  ++cFpgaGrants_;
}

SimDuration OsKernel::startExec(
    std::size_t t, std::uint64_t cycles, const char* category,
    SimTime spanStart, SimDuration setup,
    std::initializer_list<std::pair<const char*, std::string>> attrs) {
  TaskRuntime& tr = task(t);
  const FpgaExec& fx = currentExec(t);
  const SimDuration execTime = execDuration(fx, cycles);
  cFpgaComputeNs_ += execTime;
  tr.cyclesExecuted += cycles;
  tr.fpgaExecTotal += execTime;
  const std::string& name = registry_.circuit(fx.config).name;
  obs::AttrList all;
  all.reserve(2 + attrs.size());
  all.emplace_back("config", name);
  all.emplace_back("config_id", std::to_string(fx.config));
  for (const auto& [key, value] : attrs) all.emplace_back(key, value);
  spans_.complete(tr.spec.name + "/" + name, category, spanStart,
                  setup + execTime, std::move(all), trackOf(t),
                  linksFor(fx.config));
  return execTime;
}

void OsKernel::arm(std::size_t t, SimTime runFrom, SimDuration execTime,
                   std::uint64_t cyclesLeft, bool mayHang) {
  if (mayHang && options_.ft.plan && options_.ft.watchdogFactor > 0 &&
      options_.ft.plan->execHangs()) {
    // The execution hangs: no completion is ever signalled and no progress
    // is made (cyclesRemaining stays untouched). The watchdog preempts it
    // after watchdogFactor x the expected time.
    const auto wd = static_cast<SimDuration>(std::llround(
        static_cast<double>(execTime) * options_.ft.watchdogFactor));
    sim_->scheduleAt(runFrom + wd, [this, t] { watchdogFire(t); });
    return;
  }
  const SimTime deadline = runFrom + execTime;
  const EventId ev = sim_->scheduleAt(deadline, [this, t] { execDone(t); });
  runningExecs_.push_back(RunningExec{t, ev, deadline, cyclesLeft});
}

void OsKernel::execDone(std::size_t t) {
  const auto it =
      std::find_if(runningExecs_.begin(), runningExecs_.end(),
                   [t](const RunningExec& re) { return re.task == t; });
  TaskRuntime& tr = task(t);
  tr.cyclesRemaining = it->cyclesLeft;
  runningExecs_.erase(it);
  if (Service* svc = serviceFor(currentExec(t).config)) {
    svc->busy = false;
    opComplete(t);
    dispatchService(*svc);
    return;
  }
  release(t);
  if (tr.cyclesRemaining == 0) {
    opComplete(t);
  } else {
    // A whole-device slice expired before the op did.
    residentStateLive_ = true;
    ++tr.preemptions;
    ++cFpgaPreemptions_;
    trace_.record(sim_->now(), TraceKind::kTaskPreempt,
                  tr.spec.name + " (fpga)");
    spans_.instantAt(sim_->now(), "preempt/slice", "os.preempt",
                     {{"task", tr.spec.name}}, trackOf(t));
    if (!options_.saveStateOnPreempt) {
      // Roll-back: all progress of this execution is lost (§3). The aging
      // rule lets the restarted execution run to completion so the system
      // cannot livelock on mutual roll-backs.
      ++tr.rollbacks;
      ++cRollbacks_;
      tr.cyclesRemaining = currentExec(t).cycles;
      tr.runToCompletionNext = true;
    }
    requeueFpga(t);
  }
  dispatchFpga();
}

void OsKernel::watchdogFire(std::size_t t) {
  TaskRuntime& tr = task(t);
  ++tr.preemptions;
  ++tr.watchdogTrips;
  ++cFpgaPreemptions_;
  if (fm_.watchdogPreempts != nullptr) *fm_.watchdogPreempts += 1;
  trace_.record(sim_->now(), TraceKind::kTaskPreempt,
                tr.spec.name + " (watchdog)");
  spans_.instantAt(sim_->now(), "preempt/watchdog", "os.preempt",
                   {{"task", tr.spec.name}}, trackOf(t));
  // The hung circuit's registers are garbage: release() never saves them,
  // and the loader forgets whose they were, so no grant resumes them.
  release(t);
  loader_.dropOwner();
  if (tr.watchdogTrips >= options_.ft.watchdogTripLimit) {
    parkTask(t, "execution hung past the watchdog trip limit");
    dispatchFpga();
    return;
  }
  // Full re-run, a roll-back: the progress of earlier slices (or of a
  // resumed continuation) lived in those registers, so the whole op is
  // owed again; the durable checkpoint carries it and a restore restarts
  // it from scratch. The op is submitted afresh, because the release may
  // have let a deferred quarantine shrink the device below its circuit.
  ++tr.rollbacks;
  ++cRollbacks_;
  tr.cyclesRemaining = currentExec(t).cycles;
  writeCheckpoint(t, {}, "preempt");
  submitFpga(t);
}

SimDuration OsKernel::release(std::size_t t, bool recorded) {
  if (!pm_) {
    fpgaRunning_.reset();
    residentStateLive_ = false;
    return 0;
  }
  TaskRuntime& tr = task(t);
  const SimDuration cost = pm_->unload(tr.partition);
  cConfigNs_ += cost;
  bookPort(cost);
  if (recorded) {
    trace_.record(sim_->now(), TraceKind::kPartitionRelease, tr.spec.name);
  }
  tr.partition = kNoPartition;
  gRelocations_.set(static_cast<double>(pm_->relocations()));
  retryPendingQuarantines();
  return cost;
}

void OsKernel::dispatchWholeDevice() {
  if (fpgaRunning_ || fpgaWaiting_.empty()) return;
  const std::size_t t = popNext(fpgaWaiting_);
  fpgaRunning_ = t;
  grant(t, sim_->now());
  TaskRuntime& tr = task(t);
  const FpgaExec& fx = currentExec(t);
  bool preemptive = options_.policy == FpgaPolicy::kDynamicLoading &&
                    options_.fpgaSlice > 0 && !tr.runToCompletionNext;
  tr.runToCompletionNext = false;
  // A restored task's carried registers become its snapshot, which this
  // activation resumes.
  if (!tr.spec.migratedState.empty()) {
    loader_.adoptState(t, fx.config, std::exchange(tr.spec.migratedState, {}));
  }
  // Save the resident circuit's registers only when a preemption left
  // live intermediate state behind; a completed execution needs nothing.
  const ConfigId outgoing = loader_.current();
  const std::uint64_t bitsBefore = port_->stats().bitsWritten;
  const auto cost = loader_.activate(
      fx.config, t, options_.saveStateOnPreempt && residentStateLive_);
  // The switch occupies the configuration port.
  const SimTime start = bookPort(cost.total);
  // Ledger attribution: whatever the activation pushed through the port
  // (download and state moves, retries included) is this task's bill.
  tr.configBitsWritten += port_->stats().bitsWritten - bitsBefore;
  if (cost.downloaded) {
    ++tr.downloads;
  } else {
    ++tr.configHits;
  }
  if (cost.saveTime > 0 && outgoing != kNoConfig) {
    trace_.record(sim_->now(), TraceKind::kStateSave,
                  registry_.circuit(outgoing).name);
  }
  if (cost.downloaded) {
    ++cDownloads_;
    trace_.record(sim_->now(), TraceKind::kConfigDownload,
                  registry_.circuit(fx.config).name);
    spans_.complete("download/" + registry_.circuit(fx.config).name,
                    "os.config", start + cost.saveTime, cost.downloadTime,
                    {{"config_id", std::to_string(fx.config)}}, trackOf(t),
                    linksFor(fx.config));
  }
  if (cost.restoredSavedState) {
    trace_.record(sim_->now(), TraceKind::kStateRestore,
                  registry_.circuit(fx.config).name);
  }
  cConfigNs_ += cost.downloadTime;
  cStateMoveNs_ += cost.saveTime + cost.restoreTime;
  if (cost.downloadFailed) {
    // Retry budget exhausted: the device never held a verified copy of the
    // configuration. Park the task instead of running garbage; the device
    // is occupied for the (wasted) transfer time.
    sim_->scheduleAt(start + cost.total, [this, t] {
      release(t);
      parkTask(t, "configuration download failed after retries");
      dispatchWholeDevice();
    });
    return;
  }
  if (cost.resumeCorrupt) {
    // The snapshot rotted, so the circuit restarted from its initial
    // values: a roll-back. The whole op is owed again, and the aging rule
    // runs this execution to completion.
    ++tr.rollbacks;
    ++cRollbacks_;
    tr.cyclesRemaining = fx.cycles;
    preemptive = false;
  }

  // A preemptive execution runs one slice, rounded to whole circuit
  // cycles (at least one).
  SimDuration runFor = execDuration(fx, tr.cyclesRemaining);
  if (preemptive) runFor = std::min(runFor, options_.fpgaSlice);
  const std::uint64_t cyclesRun =
      std::min(std::max<std::uint64_t>(runFor / clockPeriod(fx.config), 1),
               tr.cyclesRemaining);
  const SimDuration execTime =
      startExec(t, cyclesRun, "os.fpga_exec", start, cost.total,
                {{"cycles", std::to_string(cyclesRun)},
                 {"downloaded", cost.downloaded ? "true" : "false"}});
  arm(t, start + cost.total, execTime, tr.cyclesRemaining - cyclesRun, true);
}

void OsKernel::tryDispatchPartitioned() {
  // Grant waiters in arrival order; a waiter that does not fit blocks only
  // itself (later, smaller requests may still be served — documented
  // deviation from strict head-of-line blocking, which §4 leaves open).
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = fpgaWaiting_.begin(); it != fpgaWaiting_.end(); ++it) {
      const std::size_t t = *it;
      const FpgaExec& fx = currentExec(t);
      TaskRuntime& tr = task(t);
      const std::uint64_t bitsBefore = port_->stats().bitsWritten;
      // A migrated or checkpointed continuation resumes the registers it
      // carries (sealed here; they reach the install intact).
      SealedState carried;
      carried.bits.swap(tr.spec.migratedState);
      carried.seal(nullptr);
      auto load = pm_->load(fx.config, &carried);
      if (!load) {
        tr.spec.migratedState.swap(carried.bits);
        continue;
      }
      fpgaWaiting_.erase(it);
      progress = true;

      tr.partition = load->partition;
      ++cDownloads_;
      ++tr.downloads;
      tr.configBitsWritten += port_->stats().bitsWritten - bitsBefore;
      ++cPartitionsCreated_;
      cConfigNs_ += load->cost;
      // Serialize on the single configuration port: this download starts
      // only when the port is free. The queueing delay counts as wait, so
      // the wait ends when the port starts this task's download, not at
      // the grant decision.
      const SimDuration setup = load->cost + load->gcCost + load->restoreCost;
      const SimTime portStart = bookPort(setup);
      grant(t, portStart);
      if (!load->downloadFailed) {
        trace_.record(sim_->now(), TraceKind::kPartitionAssign,
                      registry_.circuit(fx.config).name + " -> strip " +
                          std::to_string(pm_->circuitIn(load->partition)
                                             .region.x0));
      }
      if (load->garbageCollected) {
        gGarbageCollections_.add(1);
        cConfigNs_ += load->gcCost;
        trace_.record(sim_->now(), TraceKind::kGarbageCollect,
                      "cost=" + std::to_string(load->gcCost));
        if (!load->downloadFailed) {
          spans_.complete("gc", "os.partition", portStart + load->cost,
                          load->gcCost, {}, 0);
        }
        // Compaction stalls every in-flight execution: shift their
        // completions by the GC time.
        stallRunningExecs(load->gcCost);
      }
      if (load->downloadFailed) {
        // Retry budget exhausted: release the strip (its RAM holds an
        // unverified image; the scrubber repairs it toward the golden
        // intent) and park the task instead of running garbage. The park
        // checkpoint keeps the registers it carries.
        tr.spec.migratedState.swap(carried.bits);
        release(t, false);
        parkTask(t, "configuration download failed after retries");
        break;  // deque mutated; restart the scan
      }
      if (load->resumed) {
        cStateMoveNs_ += load->restoreCost;
        tr.configBitsWritten += carried.bits.size();
        trace_.record(sim_->now(), TraceKind::kStateRestore,
                      tr.spec.name + " (migrated in)");
        if (analysis::invariantChecksEnabled()) {
          // Migration resume is a corruption entry point: the image crossed
          // devices and the state crossed the wire. Re-prove the configured
          // partition still computes its mapped netlist before running it.
          analysis::equiv::verifyConfiguredOrThrow(
              *dev_, pm_->circuitIn(load->partition),
              "cluster migration resume post-condition");
        }
      }

      spans_.complete("download/" + registry_.circuit(fx.config).name,
                      "os.config", portStart, load->cost,
                      {{"config_id", std::to_string(fx.config)},
                       {"partition", std::to_string(load->partition)}},
                      trackOf(t), linksFor(fx.config));
      const SimDuration execTime =
          startExec(t, tr.cyclesRemaining, "os.fpga_exec", portStart, setup,
                    {{"partition", std::to_string(load->partition)}});
      arm(t, portStart + setup, execTime, 0, true);
      break;  // deque mutated; restart the scan
    }
  }
}

// -------------------------------------------------------- live migration

const OsKernel::RunningExec* OsKernel::liveExec(std::size_t t) const {
  if (tasks_[t].partition == kNoPartition) return nullptr;
  for (const RunningExec& re : runningExecs_) {
    if (re.task == t) return &re;
  }
  return nullptr;
}

std::vector<std::size_t> OsKernel::migratableTasks() const {
  std::vector<std::size_t> out(fpgaWaiting_.begin(), fpgaWaiting_.end());
  for (const RunningExec& re : runningExecs_) {
    if (liveExec(re.task) != nullptr) out.push_back(re.task);
  }
  std::sort(out.begin(), out.end());
  return out;
}

SimDuration OsKernel::readBack(std::size_t t, std::vector<bool>& registers,
                               const char* why) {
  const TaskRuntime& tr = tasks_[t];
  const SimDuration cost =
      saveRegisters(*dev_, *port_, pm_->circuitIn(tr.partition), registers);
  cStateMoveNs_ += cost;
  bookPort(cost);
  trace_.record(sim_->now(), TraceKind::kStateSave,
                tr.spec.name + " (" + why + ")");
  return cost;
}

std::uint64_t OsKernel::cyclesOwed(const RunningExec& re, ConfigId config,
                                   std::uint64_t cap) const {
  const SimDuration period = clockPeriod(config);
  const SimTime now = sim_->now();
  std::uint64_t owed = 0;
  if (re.deadline > now && period > 0) {
    owed = (re.deadline - now + period - 1) / period;
  }
  owed = std::min(owed, cap);
  return owed == 0 ? 1 : owed;
}

OsKernel::MigrationTicket OsKernel::extractForMigration(std::size_t t) {
  if (!pm_) throw std::logic_error("migration needs a partitioned policy");
  TaskRuntime& tr = task(t);
  MigrationTicket ticket;
  std::vector<bool> registers;
  if (tr.state == TaskState::kWaitingFpga) {
    const auto it = std::find(fpgaWaiting_.begin(), fpgaWaiting_.end(), t);
    if (it == fpgaWaiting_.end()) {
      throw std::logic_error("waiting task is not in the partitioned queue");
    }
    fpgaWaiting_.erase(it);
    chargeFpgaWait(t, sim_->now());
  } else if (const RunningExec* re = liveExec(t)) {
    tr.cyclesRemaining =
        cyclesOwed(*re, currentExec(t).config, tr.cyclesRemaining);
    sim_->cancel(re->completionEvent);
    runningExecs_.erase(runningExecs_.begin() + (re - runningExecs_.data()));
    // Real datapath hand-off: read the registers of the relocated circuit
    // back through the configuration port, then release the strip.
    ticket.cost += readBack(t, registers, "migrate");
    ticket.cost += release(t);
    ticket.fromRunning = true;
  } else {
    throw std::logic_error(std::string("task not in a migratable state: ") +
                           taskStateName(tr.state));
  }

  // The continuation: the current FPGA op rewritten to the cycles still
  // owed, then the untouched rest of the program.
  TaskSpec cont;
  cont.name = tr.spec.name;
  cont.arrival = sim_->now();
  cont.priority = tr.spec.priority;
  cont.ops.push_back(FpgaExec{currentExec(t).config, tr.cyclesRemaining});
  for (std::size_t i = tr.opIndex + 1; i < tr.spec.ops.size(); ++i) {
    cont.ops.push_back(tr.spec.ops[i]);
  }
  cont.migratedState = std::move(registers);
  ticket.continuation = std::move(cont);

  tr.state = TaskState::kMigrated;
  tr.finish = sim_->now();
  tr.cyclesRemaining = 0;
  trace_.record(sim_->now(), TraceKind::kInfo,
                tr.spec.name + " migrated out" +
                    (ticket.fromRunning ? " (preempted mid-execution)" : ""));
  spans_.instantAt(sim_->now(), "migrate_out", "os.migrate",
                   {{"task", tr.spec.name},
                    {"from_running", ticket.fromRunning ? "true" : "false"},
                    {"state_bits",
                     std::to_string(
                         ticket.continuation.migratedState.size())}},
                   trackOf(t));
  // A strip just freed up.
  if (ticket.fromRunning) tryDispatchPartitioned();
  return ticket;
}

// ------------------------------------------------------- fault tolerance

void OsKernel::scrubTick() {
  const bool allDone = allTasksTerminal();
  // Stop rescheduling once nothing is left to protect, so the simulation
  // can drain; run() performs one final pass.
  if (allDone) return;
  if (sim_->now() < portFreeAt_) {
    // The configuration port is mid-download: a readback scrub would
    // contend with live configuration traffic. Yield and retry the moment
    // the port frees instead of stretching the download.
    *fm_.scrubDeferred += 1;
    trace_.record(sim_->now(), TraceKind::kInfo,
                  "scrub deferred: configuration port busy until " +
                      std::to_string(portFreeAt_));
    sim_->scheduleAt(portFreeAt_, [this] { scrubTick(); });
    return;
  }
  const std::vector<std::uint32_t> upsets =
      options_.ft.plan->drawUpsets(dev_->configMap().totalBits());
  for (const std::uint32_t bit : upsets) {
    dev_->setConfigBit(bit, !dev_->image().get(bit));
  }
  if (!upsets.empty()) *fm_.upsets += upsets.size();
  const ScrubResult res = port_->scrub();
  *fm_.scrubRuns += 1;
  if (res.repairedFrames > 0) {
    *fm_.scrubRepairs += res.repairedFrames;
    trace_.record(sim_->now(), TraceKind::kConfigReadback,
                  "scrub repaired " + std::to_string(res.repairedFrames) +
                      " frame(s)");
    if (pm_ && analysis::invariantChecksEnabled()) {
      // Scrub repair is a corruption entry point: the golden image itself
      // could be stale or the repair incomplete. Re-prove every resident
      // circuit still computes its mapped netlist.
      for (const PartitionId pid : pm_->occupiedPartitions()) {
        analysis::equiv::verifyConfiguredOrThrow(
            *dev_, pm_->circuitIn(pid), "scrub repair post-condition");
      }
    }
  }
  sim_->scheduleAfter(options_.ft.scrubInterval, [this] { scrubTick(); });
}

void OsKernel::onStripFailure(std::uint16_t column) {
  trace_.record(sim_->now(), TraceKind::kInfo,
                "permanent strip failure at column " + std::to_string(column));
  if (!attemptQuarantine(column)) pendingQuarantines_.push_back(column);
}

bool OsKernel::attemptQuarantine(std::uint16_t column) {
  const PartitionManager::QuarantineResult res = pm_->quarantine(column);
  if (res.deferred) return false;
  if (res.cost > 0) {
    // The evacuation and hygiene sweep monopolized the configuration
    // port; everything in flight stretches by its cost, exactly like a
    // GC pass.
    cConfigNs_ += res.cost;
    bookPort(res.cost);
    stallRunningExecs(res.cost);
  }
  if (res.relocated) {
    for (TaskRuntime& tr : tasks_) {
      if (tr.partition == res.movedFrom) {
        tr.partition = res.movedTo;
        ++tr.relocations;
      }
    }
  }
  trace_.record(sim_->now(), TraceKind::kInfo,
                "column " + std::to_string(column) + " quarantined" +
                    (res.relocated ? " (occupant relocated)" : ""));
  // The usable device just shrank; waiters that can no longer ever fit
  // would otherwise starve the drain check.
  parkInfeasibleWaiters();
  return true;
}

void OsKernel::onStripHeal(std::uint16_t column) {
  // A failure whose quarantine was still deferred heals in place: the
  // fence never went up, so just forget the pending request.
  const auto it = std::find(pendingQuarantines_.begin(),
                            pendingQuarantines_.end(), column);
  if (it != pendingQuarantines_.end()) {
    pendingQuarantines_.erase(it);
    trace_.record(sim_->now(), TraceKind::kInfo,
                  "column " + std::to_string(column) +
                      " healed before quarantine completed");
    return;
  }
  const SimDuration cost = pm_->unquarantine(column);
  if (cost > 0) {
    // Blanking the recovered columns monopolized the configuration port.
    cConfigNs_ += cost;
    bookPort(cost);
    stallRunningExecs(cost);
  }
  if (fm_.healed != nullptr) *fm_.healed += 1;
  trace_.record(sim_->now(), TraceKind::kInfo,
                "column " + std::to_string(column) +
                    " healed (transient fault)");
  // The device just grew back: waiters that did not fit may fit now.
  tryDispatchPartitioned();
}

void OsKernel::retryPendingQuarantines() {
  if (pendingQuarantines_.empty()) return;
  std::vector<std::uint16_t> pending;
  pending.swap(pendingQuarantines_);
  for (const std::uint16_t col : pending) {
    if (!attemptQuarantine(col)) pendingQuarantines_.push_back(col);
  }
}

SimTime OsKernel::bookPort(SimDuration cost) {
  const SimTime start = std::max(sim_->now(), portFreeAt_);
  portFreeAt_ = start + cost;
  return start;
}

void OsKernel::parkInfeasibleWaiters() {
  for (auto it = fpgaWaiting_.begin(); it != fpgaWaiting_.end();) {
    const std::size_t t = *it;
    if (pm_->feasible(currentExec(t).config)) {
      ++it;
      continue;
    }
    it = fpgaWaiting_.erase(it);
    chargeFpgaWait(t, sim_->now());
    parkTask(t, "configuration no longer fits the degraded device");
  }
}

void OsKernel::parkTask(std::size_t t, const std::string& reason) {
  TaskRuntime& tr = task(t);
  tr.state = TaskState::kParked;
  tr.partition = kNoPartition;
  tr.finish = sim_->now();
  // Durable park: the remaining program survives this kernel's death, so
  // a repaired (or different congruent) kernel can resurrect the task.
  // Registers are never saved here — every park path either lost its
  // partition already or holds garbage state.
  writeCheckpoint(t, {}, "park");
  trace_.record(sim_->now(), TraceKind::kInfo,
                tr.spec.name + " parked: " + reason);
  spans_.instantAt(sim_->now(), "park", "os.park", {{"reason", reason}},
                   trackOf(t));
  if (fm_.parked != nullptr) *fm_.parked += 1;
  flight_.dump("FT_PARK", tr.spec.name + ": " + reason);
}

void OsKernel::stallRunningExecs(SimDuration d) {
  for (RunningExec& re : runningExecs_) {
    sim_->cancel(re.completionEvent);
    re.deadline += d;
    const std::size_t rt = re.task;
    // Instant (not a span): the exec span already in the tracer keeps its
    // original duration, and a stall interval would straddle its end —
    // partial overlap the Chrome validator rejects. The waterfall builder
    // reads stall_ns off the mark instead.
    spans_.instantAt(sim_->now(), "stall", "os.stall",
                     {{"task", tasks_[rt].spec.name},
                      {"stall_ns", std::to_string(d)}},
                     trackOf(rt));
    re.completionEvent =
        sim_->scheduleAt(re.deadline, [this, rt] { execDone(rt); });
  }
}

// ------------------------------------------------ durable checkpointing

fault::TaskCheckpoint OsKernel::buildCheckpoint(
    std::size_t t, std::vector<bool> registers) const {
  const TaskRuntime& tr = tasks_[t];
  // A whole-device task cut on a slice boundary left its registers in the
  // loader's snapshot (a rotted one is no registers at all); a continuation
  // not yet granted still carries the registers it arrived with.
  const auto snap = loader_.snapshots().find(t);
  const bool saved = snap != loader_.snapshots().end() &&
                     snap->second.state.intact();
  if (registers.empty()) {
    registers = saved ? snap->second.state.bits : tr.spec.migratedState;
  }
  fault::TaskCheckpoint ck;
  ck.task = tr.spec.name;
  ck.priority = tr.spec.priority;
  ck.device = std::to_string(dev_->geometry().cols) + "x" +
              std::to_string(dev_->geometry().rows);
  if (pm_ && tr.partition != kNoPartition) {
    const CompiledCircuit& placed = pm_->circuitIn(tr.partition);
    ck.placementX0 = placed.region.x0;
    ck.placementWidth = placed.region.w;
  }
  for (std::size_t i = tr.opIndex; i < tr.spec.ops.size(); ++i) {
    fault::CheckpointOp op;
    if (const auto* fx = std::get_if<FpgaExec>(&tr.spec.ops[i])) {
      const CompiledCircuit& c = registry_.circuit(fx->config);
      op.isFpga = true;
      op.config = c.name;
      op.configWidth = c.region.w;
      op.cycles = fx->cycles;
      if (i == tr.opIndex) {
        // The cut op: cycles still owed. An execution with live registers
        // owes the whole cycles between now and its deadline (same rule as
        // live migration), the loader's snapshot the residual counter; a
        // checkpoint without registers owes the whole op.
        const RunningExec* re = liveExec(t);
        if (re != nullptr) {
          op.cycles = cyclesOwed(*re, fx->config, tr.cyclesRemaining);
        } else if (saved) {
          op.cycles = tr.cyclesRemaining;
        }
      }
    } else {
      const auto& cb = std::get<CpuBurst>(tr.spec.ops[i]);
      op.cpuNs = (i == tr.opIndex && tr.cpuRemaining > 0) ? tr.cpuRemaining
                                                          : cb.duration;
    }
    ck.ops.push_back(std::move(op));
  }
  ck.registers = std::move(registers);
  return ck;
}

void OsKernel::writeCheckpoint(std::size_t t, std::vector<bool> registers,
                               const char* reason) {
  if (!ckpt_) return;
  TaskRuntime& tr = task(t);
  const std::uint64_t stateBits = registers.size();
  const fault::CheckpointStore::WriteResult wr =
      ckpt_->write(buildCheckpoint(t, std::move(registers)));
  ++tr.checkpoints;
  tr.checkpointedBytes += wr.bytes;
  if (fm_.ckptWritten != nullptr) *fm_.ckptWritten += 1;
  if (fm_.ckptBytes != nullptr) *fm_.ckptBytes += wr.bytes;
  trace_.record(sim_->now(), TraceKind::kInfo,
                tr.spec.name + " checkpoint g" + std::to_string(wr.generation) +
                    " (" + reason + ", " + std::to_string(wr.bytes) +
                    " bytes)");
  spans_.instantAt(sim_->now(), "checkpoint", "os.checkpoint",
                   {{"task", tr.spec.name},
                    {"reason", reason},
                    {"generation", std::to_string(wr.generation)},
                    {"bytes", std::to_string(wr.bytes)},
                    {"state_bits", std::to_string(stateBits)}},
                   trackOf(t));
}

void OsKernel::checkpointTick() {
  const bool allDone = allTasksTerminal();
  // Stop rescheduling once every task is terminal so the simulation drains.
  if (allDone) return;
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    TaskRuntime& tr = task(t);
    if (tr.terminal() || tr.state == TaskState::kNew) continue;
    if (tr.opIndex >= tr.spec.ops.size()) continue;
    // Live snapshot of a running partitioned execution, read back like a
    // migration hand-off.
    std::vector<bool> registers;
    if (liveExec(t) != nullptr) readBack(t, registers, "checkpoint");
    writeCheckpoint(t, std::move(registers), "cadence");
  }
  sim_->scheduleAfter(options_.ft.checkpointInterval,
                      [this] { checkpointTick(); });
}

TaskSpec checkpointedTask(const fault::TaskCheckpoint& ck,
                          const ConfigRegistry& registry) {
  TaskSpec ts;
  ts.name = ck.task;
  ts.priority = ck.priority;
  bool firstFpga = true;
  for (const fault::CheckpointOp& op : ck.ops) {
    if (!op.isFpga) {
      ts.ops.push_back(CpuBurst{op.cpuNs});
      continue;
    }
    const ConfigId id = registry.byName(op.config);
    if (id == kNoConfig) {
      throw std::runtime_error("restore: checkpoint references circuit '" +
                               op.config + "' which is not registered here");
    }
    const CompiledCircuit& c = registry.circuit(id);
    if (c.region.w != op.configWidth) {
      throw std::runtime_error(
          "restore: circuit '" + op.config + "' congruence violation " +
          "(checkpointed width " + std::to_string(op.configWidth) +
          ", registered width " + std::to_string(c.region.w) + ")");
    }
    // The snapshot holds the registers of the first FPGA op, which it
    // resumes.
    if (std::exchange(firstFpga, false) && !ck.registers.empty() &&
        ck.registers.size() != c.ffCount()) {
      throw std::runtime_error(
          "restore: circuit '" + op.config + "' congruence violation " +
          "(checkpointed registers " + std::to_string(ck.registers.size()) +
          ", registered FFs " + std::to_string(c.ffCount()) + ")");
    }
    ts.ops.push_back(FpgaExec{id, op.cycles});
  }
  ts.migratedState = ck.registers;
  return ts;
}

std::size_t OsKernel::restoreTask(const fault::TaskCheckpoint& ck) {
  TaskSpec ts = checkpointedTask(ck, registry_);
  ts.arrival = sim_->now();
  // The register snapshot rides in exactly like a live migration: written
  // back through the port at the first grant, then the configured fabric
  // is re-proven against its mapped netlist under invariant checks.
  const std::size_t t = tasks_.size();
  addTask(std::move(ts));
  TaskRuntime& tr = task(t);
  ++tr.restores;
  if (fm_.ckptRestores != nullptr) *fm_.ckptRestores += 1;
  const std::string geom = std::to_string(dev_->geometry().cols) + "x" +
                           std::to_string(dev_->geometry().rows);
  trace_.record(sim_->now(), TraceKind::kInfo,
                ck.task + " restored from checkpoint onto " + geom +
                    (geom == ck.device ? "" : " (checkpointed on " +
                                                  ck.device + ")"));
  spans_.instantAt(sim_->now(), "restore", "os.restore",
                   {{"task", ck.task},
                    {"device", geom},
                    {"state_bits", std::to_string(ck.registers.size())}},
                   trackOf(t));
  return t;
}

}  // namespace vfpga
