// The VFPGA operating-system kernel: a discrete-event model of a
// single-CPU, single-FPGA multitasking system implementing the paper's
// resource-management policies.
//
// FPGA policies (the experimental axes of E2-E5):
//  * kSoftwareOnly      — no FPGA: FpgaExec ops run on the CPU, slowed by
//                         `softwareSlowdown` (the baseline any
//                         virtualization scheme must beat);
//  * kExclusive         — §4's "more drastic solution": the FPGA is
//                         non-preemptable; tasks queue FIFO for the whole
//                         device and hold it to completion;
//  * kDynamicLoading    — §3: the whole device is context-switched between
//                         tasks; with fpgaSlice > 0 executions are
//                         preempted on the slice boundary, saving register
//                         state through the configuration port (or rolling
//                         back when saveStateOnPreempt is false, or when
//                         the saved state fails its CRC at the resume);
//  * kPartitionedFixed / kPartitionedVariable — §4: column-strip
//                         partitions, concurrent execution, and (variable
//                         mode) split/merge plus garbage collection.
//
// The kernel boots on a blank device and performs *real* downloads on it
// (the configuration RAM always reflects what a real system would hold);
// circuit evaluation time is charged analytically as cycles x clock period,
// the period read at registration from the routed design's image.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compile/compiler.hpp"
#include "core/config_registry.hpp"
#include "core/dynamic_loader.hpp"
#include "core/metrics.hpp"
#include "core/partition_manager.hpp"
#include "core/task.hpp"
#include "fault/checkpoint.hpp"
#include "fault/fault_plan.hpp"
#include "fault/health_inputs.hpp"
#include "fault/recovery.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/span_tracer.hpp"
#include "sim/event_queue.hpp"
#include "sim/trace.hpp"

namespace vfpga {

enum class FpgaPolicy : std::uint8_t {
  kSoftwareOnly,
  kExclusive,
  kDynamicLoading,
  kPartitionedFixed,
  kPartitionedVariable,
};

const char* fpgaPolicyName(FpgaPolicy p);

struct OsOptions {
  FpgaPolicy policy = FpgaPolicy::kDynamicLoading;
  /// When true, ready queues (CPU and whole-device FPGA) pick the highest
  /// TaskSpec::priority first (FIFO among equals) instead of plain FIFO.
  bool priorityScheduling = false;
  SimDuration cpuTimeSlice = millis(10);
  /// FPGA preemption quantum for kDynamicLoading; 0 = run to completion.
  SimDuration fpgaSlice = 0;
  /// Preempted circuits save/restore state (true) or roll back (false).
  bool saveStateOnPreempt = true;
  /// Partitioned policies.
  FitPolicy fit = FitPolicy::kFirstFit;
  std::vector<std::uint16_t> fixedWidths;
  bool garbageCollect = true;
  /// Software execution of a circuit runs this many times slower than the
  /// FPGA clock (per cycle).
  double softwareSlowdown = 20.0;

  /// Fault tolerance. Everything here is inert until `plan` is set: with a
  /// plan the kernel installs the wire tamper hook, turns on download
  /// verification/retry (`recovery`), runs the periodic readback scrubber
  /// and arms the execution watchdog. Without a plan the kernel's
  /// behaviour, cost model and metric families are bit-identical to
  /// before the fault subsystem existed.
  struct FaultToleranceOptions {
    fault::FaultPlan* plan = nullptr;      ///< not owned; outlives kernel
    /// Period of the readback scrubber (0 = no scrubbing).
    SimDuration scrubInterval = 0;
    /// Download verification/retry policy applied when plan is set.
    fault::RecoveryOptions recovery{true, 3, micros(50)};
    /// A dispatched execution that has not completed after
    /// watchdogFactor x its expected time is preempted (0 = no watchdog).
    double watchdogFactor = 4.0;
    /// Watchdog preemptions of one task before it is parked.
    std::uint64_t watchdogTripLimit = 8;
    /// Durable checkpoint directory (empty = checkpointing off; kernel
    /// behaviour, cost model and metric families stay bit-identical).
    /// When set — independently of `plan` — every park and watchdog
    /// preemption writes a versioned, CRC-guarded, double-buffered
    /// checkpoint, and `checkpointInterval` adds a periodic cadence that
    /// snapshots running partitioned executions through the config port.
    std::string checkpointDir;
    /// Period of the checkpoint cadence (0 = only on park/preempt).
    SimDuration checkpointInterval = 0;
  };
  FaultToleranceOptions ft;
};

/// The task a checkpoint resumes, its ops resolved by circuit name through
/// `registry`, carrying the register snapshot as migratedState. Throws
/// std::runtime_error when an op names an unregistered circuit, or when
/// the registered strip width or the first FPGA op's FF count differs from
/// the checkpoint's (a congruence violation: the caller records a
/// diagnosed rejection, never a silent wrong restore).
TaskSpec checkpointedTask(const fault::TaskCheckpoint& ck,
                          const ConfigRegistry& registry);

class OsKernel {
 public:
  /// Blanks `device` and re-bases `port`'s golden image on it.
  OsKernel(Simulation& sim, Device& device, ConfigPort& port,
           Compiler& compiler, OsOptions options);
  ~OsKernel();
  OsKernel(const OsKernel&) = delete;
  OsKernel& operator=(const OsKernel&) = delete;

  /// Registers a stored circuit, shared with whoever else holds the entry
  /// (the cluster's kernels on the same fabric). Call before addTask.
  ConfigId registerConfig(std::shared_ptr<const StoredCircuit> entry);
  /// Registers a private entry: its clock period read from its image with
  /// nothing written to the device or the port. Throws std::logic_error
  /// when the image does not decode.
  ConfigId registerConfig(CompiledCircuit circuit);

  /// Installs a registered configuration as a *service* — the paper's §3
  /// device-driver case: "a single algorithm ... downloaded in the FPGA
  /// for all tasks running on the system", selected "once for all tasks -
  /// in the configuration parameters of the operating system". The circuit
  /// is loaded now into a pinned partition and never evicted; FpgaExec ops
  /// naming it run without any download, serialized like requests to a
  /// shared driver. Partitioned policies only. Returns the install cost.
  SimDuration installService(ConfigId id);

  /// Declares a task; it arrives at spec.arrival simulated time.
  void addTask(TaskSpec spec);

  /// Runs the simulation until every task finished. When
  /// VFPGA_CHECK_INVARIANTS is enabled, checkInvariants() runs after every
  /// simulated event. Equivalent to start() + draining the simulation +
  /// finalize(); single-kernel callers use this, the cluster layer (which
  /// shares one Simulation between many kernels and owns the event loop)
  /// calls the pieces. An InvariantViolation escaping the run is dumped
  /// into this kernel's flight recorder, then rethrown.
  void run();

  /// Marks the kernel started and schedules its autonomous event sources
  /// (scrubber ticks, scripted strip failures and heals). Does not drain
  /// the simulation.
  void start();

  /// Post-drain bookkeeping: final scrub pass, fault-counter fold-in and
  /// gauge snapshots. Throws when any task is non-terminal — the caller
  /// drained the simulation too early.
  void finalize();

  // ---- live migration (cluster layer) ---------------------------------------
  /// One extracted task: the remaining program (current FPGA op rewritten
  /// to the cycles still owed) plus what the hand-off cost at this source.
  struct MigrationTicket {
    /// Its migratedState holds the registers read back through the
    /// configuration port when the task was running (empty for a task
    /// extracted while still waiting).
    TaskSpec continuation;
    SimDuration cost = 0;  ///< state readback + strip deactivation time
    bool fromRunning = false;
  };

  /// Task indices that can currently be handed to another kernel: FPGA
  /// waiters, plus (partitioned policies) in-flight executions — but never
  /// hung ones, whose register state is garbage. Ordered by task index.
  std::vector<std::size_t> migratableTasks() const;

  /// Extracts task `t` for live migration: dequeues a waiter or preempts a
  /// running execution (real register readback through the port, partition
  /// released), marks the task kMigrated here and returns the continuation
  /// the target kernel should addTask(). Partitioned policies only.
  MigrationTicket extractForMigration(std::size_t t);

  // ---- durable checkpoint / restart -----------------------------------------
  /// The store behind ft.checkpointDir (nullptr when checkpointing is off).
  fault::CheckpointStore* checkpointStore() { return ckpt_.get(); }

  /// Re-admits a checkpointed task into this kernel (possibly a different
  /// kernel instance, device or process than the one that wrote it),
  /// resolved through this kernel's registry by checkpointedTask() (which
  /// throws on a congruence violation). The register snapshot rides in as
  /// migrated state, which the install at the task's first grant resumes
  /// (a partition install is then verified against the configured fabric
  /// exactly like a cluster migration). Returns the new task index.
  std::size_t restoreTask(const fault::TaskCheckpoint& ck);

  /// Builds a durable checkpoint of task `t` as it stands now: remaining
  /// program, placement when the task holds a partition, and registers:
  /// the given snapshot of a live execution, which owes the cycles to its
  /// deadline, else the loader's snapshot of a whole-device task cut on a
  /// slice boundary, which owes its residual cycles, else the registers a
  /// continuation not yet granted carries. A checkpoint without registers
  /// owes its whole current op.
  fault::TaskCheckpoint buildCheckpoint(std::size_t t,
                                        std::vector<bool> registers) const;

  /// Queue-depth view for cluster placement policies.
  std::size_t fpgaWaitingCount() const { return fpgaWaiting_.size(); }
  std::size_t runningExecCount() const { return runningExecs_.size(); }
  /// Partition manager (nullptr for non-partitioned policies).
  const PartitionManager* partitionManager() const {
    return pm_ ? &*pm_ : nullptr;
  }
  const OsOptions& options() const { return options_; }

  /// Verifies the TS* task-state-machine invariants (plus the partition
  /// manager's, under partitioned policies) and throws
  /// analysis::InvariantViolation on any breach.
  void checkInvariants() const;

  /// Legacy metrics façade, rebuilt from the registry on every call; the
  /// registry (metricsRegistry()) is the source of truth.
  const OsMetrics& metrics() const;
  const Trace& trace() const { return trace_; }
  const std::vector<TaskRuntime>& tasks() const { return tasks_; }
  ConfigRegistry& registry() { return registry_; }
  /// Named-metrics registry backing metrics(); exporters walk this.
  obs::MetricsRegistry& metricsRegistry() { return metricsRegistry_; }
  const obs::MetricsRegistry& metricsRegistry() const {
    return metricsRegistry_;
  }
  /// Simulated-time span tracer (one complete span per FPGA execution,
  /// download and garbage collection; tracks = task indices).
  const obs::SpanTracer& spanTracer() const { return spans_; }
  obs::SpanTracer& spanTracer() { return spans_; }
  /// Post-mortem dumper of this kernel: run() dumps an invariant
  /// violation into it, and every park writes an FT_PARK bundle.
  obs::FlightRecorder& flightRecorder() { return flight_; }
  Simulation& sim() { return *sim_; }
  /// Measured clock period of a registered configuration.
  SimDuration clockPeriod(ConfigId id) const {
    return registry_.entry(id).clockPeriod();
  }
  /// Compile-flow span id that produced `config` (0 when the circuit was
  /// compiled without a tracer attached). OS download/exec spans carry it
  /// in their `links`, so reports can join runtime cost to compile phase.
  std::uint64_t compileSpanOf(ConfigId id) const {
    return registry_.circuit(id).compileSpanId;
  }
  /// Non-owning Trace access for live streaming sinks.
  Trace& traceRing() { return trace_; }

  /// Wires a per-strip occupancy heatmap collector to the partition
  /// manager: every allocate/release/relocate/quarantine snapshots the
  /// strip table at the current simulated time. Partitioned policies only.
  void attachHeatmap(obs::HeatmapCollector* heatmap);

  /// Live fault-activity snapshot for continuous health grading: reads the
  /// component stats (partition manager, config port, state loader, fault
  /// families) as they stand *now*, unlike finalize()'s one-shot fold.
  /// Valid at any point of the run; counters are monotonic.
  fault::HealthInputs healthInputs() const;

  /// Periodic observer hook (the continuous monitor's sampling cadence):
  /// start() schedules `hook(now)` every `interval` of simulated time until
  /// every task is terminal, then invokes it one final time and stops
  /// rescheduling so the simulation can drain — the same self-stopping
  /// idiom as the scrub tick. Call before start(); interval 0 disables.
  void setMonitorTick(SimDuration interval,
                      std::function<void(SimTime)> hook);

 private:
  /// {compile span id} link list for a config (empty when untraced).
  std::vector<std::uint64_t> linksFor(ConfigId id) const;

  Simulation* sim_;
  Device* dev_;
  ConfigPort* port_;
  Compiler* compiler_;
  OsOptions options_;
  ConfigRegistry registry_;
  DynamicLoader loader_;
  std::optional<PartitionManager> pm_;
  Trace trace_;
  obs::MetricsRegistry metricsRegistry_;
  obs::SpanTracer spans_;
  obs::FlightRecorder flight_;
  mutable OsMetrics metricsView_;

  // Registry-handle references; declared after metricsRegistry_ so the
  // constructor can bind them in member-init order. Stable for the
  // kernel's lifetime.
  obs::Counter& cTasksFinished_;
  obs::StatsMetric& sWaitTime_;
  obs::StatsMetric& sTurnaround_;
  obs::Gauge& gMakespan_;
  obs::Counter& cFpgaGrants_;
  obs::Counter& cFpgaPreemptions_;
  obs::Counter& cRollbacks_;
  obs::Counter& cFpgaComputeNs_;
  obs::Counter& cConfigNs_;
  obs::Counter& cStateMoveNs_;
  obs::Counter& cDownloads_;
  obs::Gauge& gBitsDownloaded_;
  obs::Counter& cPartitionsCreated_;
  obs::Gauge& gGarbageCollections_;
  obs::Gauge& gRelocations_;

  std::vector<TaskRuntime> tasks_;
  bool started_ = false;

  // CPU scheduling (round-robin).
  std::deque<std::size_t> cpuReady_;
  std::optional<std::size_t> cpuRunning_;

  // Service (device-driver) configurations: pinned partitions, FIFO
  // request queues, one request in flight per service.
  struct Service {
    ConfigId config = kNoConfig;
    bool busy = false;
    std::deque<std::size_t> queue;
  };
  std::vector<Service> services_;
  Service* serviceFor(ConfigId id);
  void dispatchService(Service& svc);

  // ---- helpers --------------------------------------------------------------
  TaskRuntime& task(std::size_t t) { return tasks_[t]; }
  const FpgaExec& currentExec(std::size_t t) const;
  SimDuration execDuration(const FpgaExec& fx, std::uint64_t cycles) const;

  void onArrive(std::size_t t);
  void enterOp(std::size_t t);
  void opComplete(std::size_t t);
  void finishTask(std::size_t t);

  void makeCpuReady(std::size_t t);
  void dispatchCpu();
  /// Pops the next task from a ready queue under the configured discipline.
  std::size_t popNext(std::deque<std::size_t>& queue);

  // ---- the FPGA execution lifecycle -----------------------------------------
  // Whole-device executions, partition executions and service requests
  // all pass through the same steps: grant(), startExec(), arm(), then
  // execDone() or watchdogFire(), and release().

  /// Tasks waiting for the device or a partition (a service request waits
  /// in its service's queue).
  std::deque<std::size_t> fpgaWaiting_;
  /// Whole-device policies: the task holding the device.
  std::optional<std::size_t> fpgaRunning_;
  /// True when the resident configuration holds a preempted execution's
  /// intermediate register state (which must be saved before eviction).
  bool residentStateLive_ = false;
  /// The configuration port is a single resource: concurrent partition
  /// loads queue behind each other. Time up to which the port is busy
  /// (written by bookPort only).
  SimTime portFreeAt_ = 0;
  /// An execution whose completion is in flight. A hung execution arms its
  /// watchdog instead and has no record, so no stall can turn a hang into
  /// a completion.
  struct RunningExec {
    std::size_t task;
    EventId completionEvent;
    SimTime deadline;
    /// Cycles the task still owes once this run completes (> 0 only for a
    /// whole-device slice that ends before its op does).
    std::uint64_t cyclesLeft;
  };
  std::vector<RunningExec> runningExecs_;
  /// Task t's in-flight record when its execution holds live registers: a
  /// completion in flight (a hung execution has none, its registers are
  /// garbage) in a partition of its own (a service request shares its
  /// service's). Migrations and checkpoints carry only these registers.
  const RunningExec* liveExec(std::size_t t) const;
  /// Reads the registers of t's partition back through the port (`why`
  /// names the reader in the trace) and books the readback; returns its
  /// cost.
  SimDuration readBack(std::size_t t, std::vector<bool>& registers,
                       const char* why);
  /// Whole cycles an execution cut now still owes (its completion would
  /// have fired at the deadline): at most `cap`, at least 1.
  std::uint64_t cyclesOwed(const RunningExec& re, ConfigId config,
                           std::uint64_t cap) const;

  void startFpgaWait(std::size_t t);
  /// Accounts task t's FPGA wait up to `until` and marks it on its track.
  void chargeFpgaWait(std::size_t t, SimTime until);
  /// Queues task t's FPGA op (at its service, or for the device or a
  /// partition) and dispatches.
  void submitFpga(std::size_t t);
  /// Task t waits for the device or a partition again.
  void requeueFpga(std::size_t t);
  void dispatchFpga();
  void dispatchWholeDevice();
  void tryDispatchPartitioned();
  /// Grant: t's wait ends at `waitEnd` and it holds the FPGA.
  void grant(std::size_t t, SimTime waitEnd);
  /// Start: charges `cycles` of t's current op as compute and records its
  /// exec span (`category`, the config attributes plus `attrs`) from
  /// `spanStart` over `setup` plus the compute time. Returns the compute
  /// time.
  SimDuration startExec(
      std::size_t t, std::uint64_t cycles, const char* category,
      SimTime spanStart, SimDuration setup,
      std::initializer_list<std::pair<const char*, std::string>> attrs);
  /// Arm: the execution computes from `runFrom` for `execTime`. When
  /// `mayHang` and the fault plan draws a hang, only the watchdog is
  /// armed; otherwise a completion, recorded in runningExecs_.
  void arm(std::size_t t, SimTime runFrom, SimDuration execTime,
           std::uint64_t cyclesLeft, bool mayHang);
  /// Complete: the completion armed for t fires (a stall re-arms it).
  void execDone(std::size_t t);
  /// Watchdog: t's execution hung; preempt it, requeue or park it.
  void watchdogFire(std::size_t t);
  /// Release: t gives the device back, or unloads its partition (charged
  /// on a degraded device, with a release record unless `!recorded`) and
  /// retries deferred quarantines. Returns the unload cost.
  SimDuration release(std::size_t t, bool recorded = true);

  // ---- fault tolerance ------------------------------------------------------
  // Registry handles for the vfpga_fault_* families; bound only when a
  // FaultPlan is installed so fault-free kernels keep their exact metric
  // families (exporter goldens included).
  struct FaultMetrics {
    obs::Counter* upsets = nullptr;
    obs::Counter* scrubRuns = nullptr;
    obs::Counter* scrubRepairs = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* aborts = nullptr;
    obs::Counter* verifyFailures = nullptr;
    obs::Counter* stateCorruptions = nullptr;
    obs::Counter* watchdogPreempts = nullptr;
    obs::Counter* quarantines = nullptr;
    obs::Counter* quarantineRelocations = nullptr;
    obs::Counter* parked = nullptr;
    obs::Counter* healed = nullptr;
    /// Scrub passes deferred because the config port was busy (the scrubber
    /// yields to configuration traffic and retries when the port frees).
    obs::Counter* scrubDeferred = nullptr;
    // Checkpoint families (bound when ft.checkpointDir is set, which may be
    // independent of a fault plan).
    obs::Counter* ckptWritten = nullptr;
    obs::Counter* ckptBytes = nullptr;
    obs::Counter* ckptRestores = nullptr;
    obs::Counter* ckptCorruptions = nullptr;
    obs::Counter* ckptFallbacks = nullptr;
  };
  FaultMetrics fm_;
  /// Durable checkpoint store (null unless ft.checkpointDir is set).
  std::unique_ptr<fault::CheckpointStore> ckpt_;
  /// Columns whose quarantine was deferred (occupant could not move yet);
  /// retried after every unload.
  std::vector<std::uint16_t> pendingQuarantines_;
  /// Monitor sampling hook (setMonitorTick); 0 interval = disabled.
  SimDuration monitorInterval_ = 0;
  std::function<void(SimTime)> monitorHook_;

  void bindFaultMetrics();
  void bindCheckpointMetrics();
  bool allTasksTerminal() const;
  void scrubTick();
  void monitorTick();
  /// Periodic checkpoint cadence: snapshots every running partitioned
  /// execution (register readback charged through the config port) and
  /// every FPGA waiter (no live state), then reschedules itself.
  void checkpointTick();
  /// Writes a durable checkpoint of task `t` (no-op when ckpt_ is null).
  /// `registers` may be empty (park/preempt of garbage or absent state).
  void writeCheckpoint(std::size_t t, std::vector<bool> registers,
                       const char* reason);
  void onStripFailure(std::uint16_t column);
  void onStripHeal(std::uint16_t column);
  bool attemptQuarantine(std::uint16_t column);
  void retryPendingQuarantines();
  void parkInfeasibleWaiters();
  /// Books one transaction of `cost` on the configuration port, after
  /// every transaction booked before it, and returns its start. Every
  /// port transaction goes through here: downloads with their GC and
  /// resume, blanking on release, quarantine and heal, checkpoint and
  /// migration readbacks, and whole-device switches. Callers charge the
  /// counters.
  SimTime bookPort(SimDuration cost);
  /// Permanently stops a task after an unrecoverable fault; dumps a
  /// flight-recorder bundle for the post-mortem.
  void parkTask(std::size_t t, const std::string& reason);
  /// Pushes every in-flight completion out by `d` (used when compaction or
  /// a quarantine relocation monopolizes the device).
  void stallRunningExecs(SimDuration d);
};

}  // namespace vfpga
