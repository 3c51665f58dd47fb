// ClusterScheduler: admission control, placement and live migration over
// a DevicePool.
//
// Jobs are submitted with an arrival time and a priority class; a bounded
// admission queue applies backpressure (arrivals beyond the bound are
// rejected, never silently dropped). A pluggable placement policy picks
// the device for each admitted job, and a periodic dispatch tick watches
// device health: when quarantine shrinks a device's usable span below a
// threshold, its movable tasks are live-migrated (real register readback
// through the source port, state writeback at the target's first grant)
// to healthy devices; an optional rebalance rule moves waiters from the
// most- to the least-loaded device, which is also how work flows *back*
// after a transient fault heals.
//
// Everything is deterministic: one shared Simulation, index-ordered
// iteration, seeded fault plans — the same campaign renders a
// byte-identical report every run.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "cluster/device_pool.hpp"
#include "fault/checkpoint.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/monitor/alerts.hpp"
#include "obs/monitor/health.hpp"
#include "obs/monitor/timeseries.hpp"
#include "obs/profile/ledger.hpp"

namespace vfpga::cluster {

enum class PlacementPolicy : std::uint8_t {
  kFirstFit,     ///< lowest-index feasible device
  kLeastLoaded,  ///< fewest waiting + running tasks, tie lowest index
  kBestFit,      ///< tightest free-strip fit (bin packing / affinity)
};

const char* placementPolicyName(PlacementPolicy p);
/// Parses "first_fit" / "least_loaded" / "best_fit"; throws on others.
PlacementPolicy placementPolicyByName(const std::string& name);

/// One cluster job: a task program plus admission metadata.
struct ClusterJobSpec {
  std::string name;
  SimTime submitAt = 0;
  int priority = 0;  ///< higher places first (FIFO among equals)
  std::vector<TaskOp> ops;  ///< FpgaExec.config holds a WorkloadId
  /// Non-empty for the continuation of a checkpointed (or externally
  /// migrated) task: the register snapshot written back through the
  /// target's configuration port at its first grant.
  std::vector<bool> migratedState;
};

/// Service-level objectives the campaign is graded against.
struct ClusterSlos {
  /// Upper bound on the p99 admission-queue wait (0 = unbounded).
  SimDuration maxP99QueueWaitNs = 0;
  /// Upper bound on rejected / submitted (backpressure losses).
  double maxRejectedFraction = 1.0;
  /// Every admitted job must complete (parked jobs violate).
  bool requireAllCompleted = true;
};

struct ClusterOptions {
  PlacementPolicy placement = PlacementPolicy::kLeastLoaded;
  /// Admission-queue bound; arrivals beyond it are rejected (backpressure).
  std::size_t admissionQueueDepth = 16;
  /// Per-device outstanding-task cap consulted by placement (waiting +
  /// running); 0 = unlimited. With every device at the cap, admitted jobs
  /// wait in the admission queue — this is where queue-wait SLOs and
  /// backpressure pressure come from. Drain migrations ignore the cap (a
  /// degraded device must evacuate somewhere).
  std::size_t maxJobsPerDevice = 0;
  /// Period of the dispatch/health tick.
  SimDuration dispatchInterval = micros(50);
  /// A device whose largest usable span falls below this many columns is
  /// drained: its movable tasks migrate to healthy devices.
  std::uint16_t minUsableColumns = 4;
  /// Drain in-flight executions too (register readback) or waiters only.
  bool migrateRunning = true;
  /// Move one waiter from the most- to the least-loaded healthy device
  /// when their queue-depth gap reaches this (0 = rebalancing off). This
  /// is the failback path after a transient fault heals.
  std::size_t rebalanceGap = 0;
  ClusterSlos slos;
};

/// Final per-job outcome row of the campaign report.
struct ClusterJobOutcome {
  std::string name;
  bool admitted = false;
  bool completed = false;
  bool parked = false;
  SimTime submitAt = 0;
  SimDuration queueWaitNs = 0;  ///< submit -> placement (admitted only)
  SimTime finishNs = 0;         ///< completion time (completed only)
  std::uint64_t migrations = 0;
  std::string device;  ///< final placement ("" when rejected)
};

class ClusterScheduler {
 public:
  ClusterScheduler(Simulation& sim, DevicePool& pool, ClusterOptions options);

  /// Declares a job; call before run(). Jobs are admitted at submitAt.
  void submit(ClusterJobSpec job);

  /// Re-admits a durably checkpointed task as a cluster job submitted at
  /// `submitAt`: each FPGA op's circuit name is resolved to the pool-wide
  /// workload id (every kernel registered workloads in the same order) and
  /// the register snapshot rides in as migrated state, so placement may
  /// pick *any* congruent device. Throws std::runtime_error on a
  /// congruence violation (see checkpointedTask()). Returns the job index.
  std::size_t submitFromCheckpoint(const fault::TaskCheckpoint& ck,
                                   SimTime submitAt);

  /// Continuous-monitor attachment (all pointers owned by the caller and
  /// must outlive the scheduler). With sampleInterval > 0 the scheduler
  /// drives the monitor on its own sim-time cadence: each tick collects
  /// per-device health counters into `health` (when collectHealth),
  /// samples every store series, then evaluates the alert rules. With
  /// sampleInterval == 0 the scheduler only *consults* `health` (placement
  /// hints, early drain) and the caller drives sampling — the mode the
  /// pinned placement tests use.
  struct MonitorAttachment {
    obs::monitor::TimeSeriesStore* store = nullptr;
    obs::monitor::AlertEngine* engine = nullptr;
    obs::monitor::HealthModel* health = nullptr;
    SimDuration sampleInterval = 0;
    bool collectHealth = true;
  };
  /// Call before run(). Health grades steer placement: critical devices
  /// take no new placements or migrations and are drained early (before
  /// the hard minUsableColumns quarantine threshold); degraded devices are
  /// only chosen when no healthy candidate fits.
  void attachMonitor(const MonitorAttachment& monitor);

  /// Health grade the scheduler sees for node `d` (kHealthy when no model
  /// is attached).
  obs::monitor::HealthGrade deviceHealth(std::size_t d) const;

  // Live signal probes for monitor series (valid mid-run, deterministic).
  std::size_t queueDepth() const { return queue_.size(); }
  /// Longest current wait among queued jobs (0 when the queue is empty).
  SimDuration oldestQueuedWaitNs() const;
  /// Nearest-rank p99 over the queue waits of jobs placed so far.
  SimDuration liveP99QueueWaitNs() const;
  double liveRejectedFraction() const;

  /// Starts every kernel, drives the shared simulation to completion and
  /// folds per-device results into the cluster metrics/report. An
  /// InvariantViolation escaping the run is dumped into every node's
  /// flight recorder, then rethrown.
  void run();

  struct Summary {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t parked = 0;
    std::uint64_t migrationsDrain = 0;
    std::uint64_t migrationsRebalance = 0;
    SimDuration p50QueueWaitNs = 0;
    SimDuration p99QueueWaitNs = 0;
    SimTime makespanNs = 0;     ///< last job completion time
    double throughputJobsPerSec = 0.0;
    double rejectedFraction = 0.0;
    bool sloP99Met = true;
    bool sloRejectedMet = true;
    bool sloCompletedMet = true;
    bool slosMet = true;
  };

  const Summary& summary() const { return summary_; }
  const std::vector<ClusterJobOutcome>& outcomes() const { return outcomes_; }
  obs::MetricsRegistry& metricsRegistry() { return reg_; }
  const ClusterOptions& options() const { return options_; }
  DevicePool& pool() { return *pool_; }

  /// Deterministic human-readable campaign report.
  std::string renderReport() const;
  /// Deterministic JSON campaign report (strict-parser compatible).
  std::string renderJsonReport() const;

  /// Campaign-wide resource ledger: one row per kernel task per device
  /// (a migrated job leaves a row on each device it touched), with
  /// circuit-store hit/miss attribution from the pool's registration
  /// record. finalizeResults() publishes its rollup into the registry.
  obs::profile::ResourceLedger resourceLedger() const;

 private:
  enum class JobState : std::uint8_t {
    kPending,   ///< submission event not fired yet
    kQueued,    ///< in the admission queue
    kPlaced,    ///< task alive on some kernel
    kRejected,  ///< backpressure drop
  };

  struct JobRecord {
    ClusterJobSpec spec;
    JobState state = JobState::kPending;
    std::size_t device = 0;      ///< current node index (placed)
    std::size_t taskIndex = 0;   ///< task index on that node's kernel
    SimDuration queueWaitNs = 0;
    std::uint64_t migrations = 0;
  };

  Simulation* sim_;
  DevicePool* pool_;
  ClusterOptions options_;
  std::vector<JobRecord> jobs_;
  std::deque<std::size_t> queue_;  ///< admission queue (job indices)
  /// Kernel task index -> job index, per node (parallel to addTask order).
  std::vector<std::vector<std::size_t>> taskJob_;
  bool started_ = false;
  bool tickArmed_ = false;
  MonitorAttachment monitor_;
  /// Grace ticks after settled() while alert resolutions are in flight,
  /// bounded so a stuck-true condition cannot keep the sim alive.
  std::uint32_t postSettleTicks_ = 0;
  static constexpr std::uint32_t kMaxPostSettleTicks = 64;

  Summary summary_;
  std::vector<ClusterJobOutcome> outcomes_;

  obs::MetricsRegistry reg_;
  obs::Counter& cSubmitted_;
  obs::Counter& cAdmitted_;
  obs::Counter& cRejected_;
  obs::Counter& cCompleted_;
  obs::Counter& cParked_;
  obs::Counter& cMigrDrain_;
  obs::Counter& cMigrRebalance_;
  obs::Counter& cHealthDrain_;
  obs::StatsMetric& sQueueWait_;

  void onSubmit(std::size_t j);
  void armTick();
  void tick();
  void pump();
  void monitorTick();
  void sampleMonitor();
  void drainDegraded();
  void rebalance();
  void placeQueued();
  /// Policy choice among nodes where `job` is fully feasible; returns
  /// nodeCount() when nowhere fits.
  std::size_t chooseDevice(const JobRecord& job) const;
  /// Target for a migrating task running config `cfg`, excluding `from`.
  std::size_t chooseTarget(ConfigId cfg, std::size_t from,
                           bool respectCap) const;
  bool nodeEligible(std::size_t d, const std::vector<ConfigId>& cfgs,
                    bool respectCap) const;
  void place(std::size_t j, std::size_t d);
  bool migrateTask(std::size_t from, std::size_t taskIdx, std::size_t to,
                   bool drain);
  bool settled() const;
  void finalizeResults();
  std::uint16_t maxWidthOf(const JobRecord& job) const;
};

}  // namespace vfpga::cluster
