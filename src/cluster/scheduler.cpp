#include "cluster/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>
#include <variant>

#include "analysis/diagnostics.hpp"
#include "core/obs_bridge.hpp"

namespace vfpga::cluster {

namespace {

/// Nearest-rank percentile over a sorted vector (deterministic integer
/// arithmetic; empty input -> 0).
SimDuration percentile(const std::vector<SimDuration>& sorted, unsigned p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = (sorted.size() - 1) * p / 100;
  return sorted[idx];
}

std::string fixed4(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

/// Every FpgaExec config an op program references from `firstOp` on.
std::vector<ConfigId> remainingConfigs(const std::vector<TaskOp>& ops,
                                       std::size_t firstOp) {
  std::vector<ConfigId> cfgs;
  for (std::size_t i = firstOp; i < ops.size(); ++i) {
    if (const auto* fx = std::get_if<FpgaExec>(&ops[i])) {
      cfgs.push_back(fx->config);
    }
  }
  return cfgs;
}

}  // namespace

const char* placementPolicyName(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kFirstFit:
      return "first_fit";
    case PlacementPolicy::kLeastLoaded:
      return "least_loaded";
    case PlacementPolicy::kBestFit:
      return "best_fit";
  }
  return "?";
}

PlacementPolicy placementPolicyByName(const std::string& name) {
  if (name == "first_fit") return PlacementPolicy::kFirstFit;
  if (name == "least_loaded") return PlacementPolicy::kLeastLoaded;
  if (name == "best_fit") return PlacementPolicy::kBestFit;
  throw std::invalid_argument("unknown placement policy: " + name);
}

ClusterScheduler::ClusterScheduler(Simulation& sim, DevicePool& pool,
                                   ClusterOptions options)
    : sim_(&sim),
      pool_(&pool),
      options_(options),
      taskJob_(pool.nodeCount()),
      cSubmitted_(reg_.counter("vfpga_cluster_jobs_submitted_total", {},
                               "Jobs offered to the cluster")),
      cAdmitted_(reg_.counter("vfpga_cluster_jobs_admitted_total", {},
                              "Jobs placed on a device")),
      cRejected_(reg_.counter("vfpga_cluster_jobs_rejected_total", {},
                              "Jobs dropped by admission backpressure")),
      cCompleted_(reg_.counter("vfpga_cluster_jobs_completed_total", {},
                               "Admitted jobs that ran to completion")),
      cParked_(reg_.counter("vfpga_cluster_jobs_parked_total", {},
                            "Admitted jobs parked by a device kernel")),
      cMigrDrain_(reg_.counter("vfpga_cluster_migrations_total",
                               {{"reason", "drain"}},
                               "Live migrations off a degraded device")),
      cMigrRebalance_(reg_.counter("vfpga_cluster_migrations_total",
                                   {{"reason", "rebalance"}},
                                   "Live migrations for load balancing")),
      cHealthDrain_(reg_.counter(
          "vfpga_cluster_health_drains_total", {},
          "Early drains triggered by a critical health grade")),
      sQueueWait_(reg_.stats("vfpga_cluster_queue_wait_ns", {},
                             "Admission-queue wait, submit to placement")) {}

void ClusterScheduler::attachMonitor(const MonitorAttachment& monitor) {
  if (started_) {
    throw std::logic_error("ClusterScheduler: attachMonitor after run()");
  }
  if (monitor.sampleInterval > 0 && monitor.store == nullptr) {
    throw std::invalid_argument(
        "ClusterScheduler: monitor sampling needs a TimeSeriesStore");
  }
  monitor_ = monitor;
}

obs::monitor::HealthGrade ClusterScheduler::deviceHealth(std::size_t d) const {
  if (monitor_.health == nullptr) return obs::monitor::HealthGrade::kHealthy;
  return monitor_.health->grade(pool_->node(d).name());
}

SimDuration ClusterScheduler::oldestQueuedWaitNs() const {
  SimDuration worst = 0;
  for (std::size_t j : queue_) {
    worst = std::max(worst, sim_->now() - jobs_[j].spec.submitAt);
  }
  return worst;
}

SimDuration ClusterScheduler::liveP99QueueWaitNs() const {
  std::vector<SimDuration> waits;
  for (const JobRecord& job : jobs_) {
    if (job.state == JobState::kPlaced) waits.push_back(job.queueWaitNs);
  }
  std::sort(waits.begin(), waits.end());
  return percentile(waits, 99);
}

double ClusterScheduler::liveRejectedFraction() const {
  std::uint64_t arrived = 0;
  std::uint64_t rejected = 0;
  for (const JobRecord& job : jobs_) {
    if (job.state == JobState::kPending) continue;
    ++arrived;
    if (job.state == JobState::kRejected) ++rejected;
  }
  return arrived == 0 ? 0.0
                      : static_cast<double>(rejected) /
                            static_cast<double>(arrived);
}

void ClusterScheduler::sampleMonitor() {
  const SimTime now = sim_->now();
  if (monitor_.health != nullptr && monitor_.collectHealth) {
    for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
      DeviceNode& node = pool_->node(d);
      // Alert pressure from the *previous* evaluation feeds this tick's
      // grade (one-tick lag; evaluation below sees this tick's samples).
      std::uint32_t warn = 0;
      std::uint32_t crit = 0;
      if (monitor_.engine != nullptr) {
        const std::string prefix = node.name() + ".";
        for (const obs::monitor::RuleStatus& rs : monitor_.engine->rules()) {
          if (rs.state != obs::monitor::AlertState::kFiring) continue;
          if (rs.rule.series.rfind(prefix, 0) != 0) continue;
          if (rs.rule.severity == obs::monitor::AlertSeverity::kCritical) {
            ++crit;
          } else {
            ++warn;
          }
        }
      }
      const PartitionManager* pm = node.kernel().partitionManager();
      const std::uint16_t total =
          pm != nullptr ? pm->allocator().columns() : 0;
      monitor_.health->update(
          node.name(), now,
          toHealthCounters(node.kernel().healthInputs(), node.usableColumns(),
                           total),
          warn, crit);
    }
  }
  monitor_.store->sampleAll(now);
  if (monitor_.engine != nullptr) monitor_.engine->evaluate(now, *monitor_.store);
}

void ClusterScheduler::monitorTick() {
  sampleMonitor();
  if (!settled()) {
    sim_->scheduleAfter(monitor_.sampleInterval, [this] { monitorTick(); });
    return;
  }
  // Give in-flight alert resolutions a bounded grace window so the
  // pending -> firing -> resolved arc lands inside the campaign.
  if (monitor_.engine != nullptr && monitor_.engine->resolutionPending() &&
      postSettleTicks_ < kMaxPostSettleTicks) {
    ++postSettleTicks_;
    sim_->scheduleAfter(monitor_.sampleInterval, [this] { monitorTick(); });
  }
}

void ClusterScheduler::submit(ClusterJobSpec job) {
  if (started_) {
    throw std::logic_error("ClusterScheduler: submit after run()");
  }
  const std::size_t j = jobs_.size();
  jobs_.push_back(JobRecord{std::move(job)});
  sim_->scheduleAt(jobs_[j].spec.submitAt, [this, j] { onSubmit(j); });
}

std::size_t ClusterScheduler::submitFromCheckpoint(
    const fault::TaskCheckpoint& ck, SimTime submitAt) {
  // Workload registration order is identical on every kernel, so node 0's
  // registry resolves names to the cluster-wide ids.
  TaskSpec ts = checkpointedTask(ck, pool_->node(0).kernel().registry());
  ClusterJobSpec job;
  job.name = std::move(ts.name);
  job.submitAt = submitAt;
  job.priority = ts.priority;
  job.ops = std::move(ts.ops);
  job.migratedState = std::move(ts.migratedState);
  const std::size_t j = jobs_.size();
  submit(std::move(job));
  return j;
}

void ClusterScheduler::onSubmit(std::size_t j) {
  ++cSubmitted_;
  JobRecord& job = jobs_[j];
  if (queue_.size() >= options_.admissionQueueDepth) {
    job.state = JobState::kRejected;
    ++cRejected_;
    return;
  }
  job.state = JobState::kQueued;
  queue_.push_back(j);
  pump();
  armTick();
}

void ClusterScheduler::armTick() {
  if (tickArmed_) return;
  tickArmed_ = true;
  sim_->scheduleAfter(options_.dispatchInterval, [this] { tick(); });
}

void ClusterScheduler::tick() {
  tickArmed_ = false;
  pump();
  if (!settled()) armTick();
}

void ClusterScheduler::pump() {
  drainDegraded();
  rebalance();
  placeQueued();
}

std::uint16_t ClusterScheduler::maxWidthOf(const JobRecord& job) const {
  std::uint16_t w = 0;
  for (ConfigId cfg : remainingConfigs(job.spec.ops, 0)) {
    w = std::max(w, pool_->workloadWidth(cfg));
  }
  return w;
}

bool ClusterScheduler::nodeEligible(std::size_t d,
                                    const std::vector<ConfigId>& cfgs,
                                    bool respectCap) const {
  const DeviceNode& node = pool_->node(d);
  if (node.usableColumns() < options_.minUsableColumns) return false;
  // A critically graded device takes no new work at all; it is being
  // drained (see drainDegraded) and will re-enter once its grade decays.
  if (deviceHealth(d) == obs::monitor::HealthGrade::kCritical) return false;
  if (respectCap && options_.maxJobsPerDevice > 0 &&
      node.load() >= options_.maxJobsPerDevice) {
    return false;
  }
  const PartitionManager* pm = node.kernel().partitionManager();
  if (pm == nullptr) return false;
  for (ConfigId cfg : cfgs) {
    if (!pm->feasible(cfg)) return false;
  }
  return true;
}

std::size_t ClusterScheduler::chooseDevice(const JobRecord& job) const {
  const std::vector<ConfigId> cfgs = remainingConfigs(job.spec.ops, 0);
  std::vector<std::size_t> cand;
  for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
    if (nodeEligible(d, cfgs, /*respectCap=*/true)) cand.push_back(d);
  }
  if (cand.empty()) return pool_->nodeCount();
  // Health is a placement hint: a degraded device only takes new work
  // when no healthy candidate fits (critical ones never pass eligibility).
  std::vector<std::size_t> healthy;
  for (std::size_t d : cand) {
    if (deviceHealth(d) == obs::monitor::HealthGrade::kHealthy) {
      healthy.push_back(d);
    }
  }
  if (!healthy.empty()) cand = std::move(healthy);

  switch (options_.placement) {
    case PlacementPolicy::kFirstFit:
      return cand.front();
    case PlacementPolicy::kLeastLoaded: {
      std::size_t best = cand.front();
      for (std::size_t d : cand) {
        if (pool_->node(d).load() < pool_->node(best).load()) best = d;
      }
      return best;
    }
    case PlacementPolicy::kBestFit: {
      // Tightest strip that can take the job's widest circuit right now;
      // devices with no immediate space fall back to least-loaded.
      const std::uint16_t width = maxWidthOf(job);
      std::size_t best = pool_->nodeCount();
      std::uint16_t bestSlack = 0xffff;
      for (std::size_t d : cand) {
        const auto* pm = pool_->node(d).kernel().partitionManager();
        const std::uint16_t free = pm->allocator().largestFree();
        if (free < width) continue;
        const auto slack = static_cast<std::uint16_t>(free - width);
        if (slack < bestSlack) {
          bestSlack = slack;
          best = d;
        }
      }
      if (best != pool_->nodeCount()) return best;
      std::size_t fallback = cand.front();
      for (std::size_t d : cand) {
        if (pool_->node(d).load() < pool_->node(fallback).load()) fallback = d;
      }
      return fallback;
    }
  }
  return pool_->nodeCount();
}

std::size_t ClusterScheduler::chooseTarget(ConfigId cfg, std::size_t from,
                                           bool respectCap) const {
  const std::vector<ConfigId> cfgs{cfg};
  std::size_t best = pool_->nodeCount();
  for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
    if (d == from || !nodeEligible(d, cfgs, respectCap)) continue;
    if (best == pool_->nodeCount() ||
        pool_->node(d).load() < pool_->node(best).load()) {
      best = d;
    }
  }
  return best;
}

void ClusterScheduler::place(std::size_t j, std::size_t d) {
  JobRecord& job = jobs_[j];
  DeviceNode& node = pool_->node(d);
  const std::size_t taskIdx = node.kernel().tasks().size();
  TaskSpec ts;
  ts.name = job.spec.name;
  ts.arrival = sim_->now();
  ts.priority = job.spec.priority;
  ts.ops = job.spec.ops;
  // Continuation of a checkpointed task: the snapshot's writeback is
  // charged once, at this placement's first grant.
  ts.migratedState = std::exchange(job.spec.migratedState, {});
  node.kernel().addTask(std::move(ts));
  taskJob_[d].push_back(j);
  job.state = JobState::kPlaced;
  job.device = d;
  job.taskIndex = taskIdx;
  job.queueWaitNs = sim_->now() - job.spec.submitAt;
  ++cAdmitted_;
  sQueueWait_.observe(static_cast<double>(job.queueWaitNs));
  // Waterfall phase mark: placement closes the admission-wait phase; the
  // queue wait rides along so the profiler can attribute it without the
  // scheduler's job table.
  node.kernel().spanTracer().instantAt(
      sim_->now(), "place/" + job.spec.name, "cluster.place",
      {{"job", job.spec.name},
       {"device", node.name()},
       {"queue_wait_ns", std::to_string(job.queueWaitNs)}},
      static_cast<std::uint32_t>(taskIdx) + 1);
}

void ClusterScheduler::placeQueued() {
  bool progress = true;
  while (progress && !queue_.empty()) {
    progress = false;
    // Highest priority class first, FIFO among equals.
    std::vector<std::size_t> order(queue_.begin(), queue_.end());
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return jobs_[a].spec.priority > jobs_[b].spec.priority;
                     });
    for (std::size_t j : order) {
      const std::size_t d = chooseDevice(jobs_[j]);
      if (d == pool_->nodeCount()) continue;
      queue_.erase(std::find(queue_.begin(), queue_.end(), j));
      place(j, d);
      progress = true;
      break;
    }
  }
}

bool ClusterScheduler::migrateTask(std::size_t from, std::size_t taskIdx,
                                   std::size_t to, bool drain) {
  DeviceNode& src = pool_->node(from);
  DeviceNode& dst = pool_->node(to);
  const std::size_t j = taskJob_[from].at(taskIdx);
  OsKernel::MigrationTicket ticket = src.kernel().extractForMigration(taskIdx);
  const std::size_t newIdx = dst.kernel().tasks().size();
  dst.kernel().addTask(std::move(ticket.continuation));
  taskJob_[to].push_back(j);
  JobRecord& job = jobs_[j];
  job.device = to;
  job.taskIndex = newIdx;
  ++job.migrations;
  if (drain) {
    ++cMigrDrain_;
  } else {
    ++cMigrRebalance_;
  }
  // Arrival-side twin of the source kernel's os.migrate mark, on the
  // continuation task's track.
  dst.kernel().spanTracer().instantAt(
      sim_->now(), "migrate_in/" + job.spec.name, "cluster.migrate",
      {{"job", job.spec.name},
       {"from", src.name()},
       {"to", dst.name()},
       {"reason", drain ? "drain" : "rebalance"}},
      static_cast<std::uint32_t>(newIdx) + 1);
  return true;
}

void ClusterScheduler::drainDegraded() {
  for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
    DeviceNode& node = pool_->node(d);
    const bool belowCapacity =
        node.usableColumns() < options_.minUsableColumns;
    // Early drain: a critical health grade evacuates the device *before*
    // quarantine erodes it past the hard capacity threshold.
    const bool criticalHealth =
        deviceHealth(d) == obs::monitor::HealthGrade::kCritical;
    if (!belowCapacity && !criticalHealth) continue;
    // Move every movable task to a healthy device. Each migration mutates
    // the queues, so re-list.
    bool moved = true;
    bool any = false;
    while (moved) {
      moved = false;
      for (std::size_t t : node.kernel().migratableTasks()) {
        const TaskRuntime& tr = node.kernel().tasks()[t];
        const bool running = tr.state == TaskState::kRunningFpga;
        if (running && !options_.migrateRunning) continue;
        const auto* fx = std::get_if<FpgaExec>(&tr.spec.ops[tr.opIndex]);
        if (fx == nullptr) continue;
        const std::size_t to = chooseTarget(fx->config, d,
                                            /*respectCap=*/false);
        if (to == pool_->nodeCount()) continue;
        migrateTask(d, t, to, /*drain=*/true);
        moved = true;
        any = true;
        break;
      }
    }
    if (any && !belowCapacity) ++cHealthDrain_;
  }
}

void ClusterScheduler::rebalance() {
  if (options_.rebalanceGap == 0 || pool_->nodeCount() < 2) return;
  std::size_t maxd = pool_->nodeCount();
  std::size_t mind = pool_->nodeCount();
  for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
    if (pool_->node(d).usableColumns() < options_.minUsableColumns) continue;
    if (maxd == pool_->nodeCount() ||
        pool_->node(d).load() > pool_->node(maxd).load()) {
      maxd = d;
    }
    if (mind == pool_->nodeCount() ||
        pool_->node(d).load() < pool_->node(mind).load()) {
      mind = d;
    }
  }
  if (maxd == pool_->nodeCount() || mind == pool_->nodeCount() ||
      maxd == mind) {
    return;
  }
  if (pool_->node(maxd).load() <
      pool_->node(mind).load() + options_.rebalanceGap) {
    return;
  }
  // Move one *waiter* (no register state to carry) per tick; repeated
  // ticks converge without thrashing.
  DeviceNode& src = pool_->node(maxd);
  for (std::size_t t : src.kernel().migratableTasks()) {
    const TaskRuntime& tr = src.kernel().tasks()[t];
    if (tr.state != TaskState::kWaitingFpga) continue;
    const std::vector<ConfigId> cfgs =
        remainingConfigs(tr.spec.ops, tr.opIndex);
    if (!nodeEligible(mind, cfgs, /*respectCap=*/true)) continue;
    migrateTask(maxd, t, mind, /*drain=*/false);
    return;
  }
}

bool ClusterScheduler::settled() const {
  if (!queue_.empty()) return false;
  for (const JobRecord& job : jobs_) {
    switch (job.state) {
      case JobState::kPending:
      case JobState::kQueued:
        return false;
      case JobState::kRejected:
        break;
      case JobState::kPlaced:
        if (!pool_->node(job.device)
                 .kernel()
                 .tasks()[job.taskIndex]
                 .terminal()) {
          return false;
        }
        break;
    }
  }
  return true;
}

void ClusterScheduler::run() {
  if (started_) throw std::logic_error("ClusterScheduler: run() twice");
  started_ = true;
  try {
    for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
      pool_->node(d).kernel().start();
    }
    armTick();
    if (monitor_.store != nullptr && monitor_.sampleInterval > 0) {
      sim_->scheduleAfter(monitor_.sampleInterval, [this] { monitorTick(); });
    }
    if (analysis::invariantChecksEnabled()) {
      while (sim_->step()) {
        for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
          pool_->node(d).kernel().checkInvariants();
        }
      }
    } else {
      sim_->run();
    }
    for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
      pool_->node(d).kernel().finalize();
    }
  } catch (const analysis::InvariantViolation& v) {
    // The nodes share one event loop and a migration spans two of them,
    // so every node's recorder holds part of the story.
    for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
      dumpFlight(pool_->node(d).kernel().flightRecorder(), v);
    }
    throw;
  }
  finalizeResults();
}

void ClusterScheduler::finalizeResults() {
  std::vector<SimDuration> waits;
  SimTime makespan = 0;
  outcomes_.clear();
  outcomes_.reserve(jobs_.size());
  for (const JobRecord& job : jobs_) {
    ClusterJobOutcome out;
    out.name = job.spec.name;
    out.submitAt = job.spec.submitAt;
    out.migrations = job.migrations;
    if (job.state == JobState::kPlaced) {
      const TaskRuntime& tr =
          pool_->node(job.device).kernel().tasks()[job.taskIndex];
      out.admitted = true;
      out.queueWaitNs = job.queueWaitNs;
      out.device = pool_->node(job.device).name();
      out.completed = tr.state == TaskState::kDone;
      out.parked = tr.state == TaskState::kParked;
      if (out.completed) {
        out.finishNs = tr.finish;
        makespan = std::max(makespan, tr.finish);
        ++cCompleted_;
      }
      if (out.parked) ++cParked_;
      waits.push_back(job.queueWaitNs);
    }
    outcomes_.push_back(std::move(out));
  }
  std::sort(waits.begin(), waits.end());

  summary_ = Summary{};
  summary_.submitted = cSubmitted_.value();
  summary_.admitted = cAdmitted_.value();
  summary_.rejected = cRejected_.value();
  summary_.completed = cCompleted_.value();
  summary_.parked = cParked_.value();
  summary_.migrationsDrain = cMigrDrain_.value();
  summary_.migrationsRebalance = cMigrRebalance_.value();
  summary_.p50QueueWaitNs = percentile(waits, 50);
  summary_.p99QueueWaitNs = percentile(waits, 99);
  summary_.makespanNs = makespan;
  summary_.throughputJobsPerSec =
      makespan == 0 ? 0.0
                    : static_cast<double>(summary_.completed) /
                          (static_cast<double>(makespan) * 1e-9);
  summary_.rejectedFraction =
      summary_.submitted == 0
          ? 0.0
          : static_cast<double>(summary_.rejected) /
                static_cast<double>(summary_.submitted);
  summary_.sloP99Met = options_.slos.maxP99QueueWaitNs == 0 ||
                       summary_.p99QueueWaitNs <= options_.slos.maxP99QueueWaitNs;
  summary_.sloRejectedMet =
      summary_.rejectedFraction <= options_.slos.maxRejectedFraction;
  summary_.sloCompletedMet = !options_.slos.requireAllCompleted ||
                             summary_.completed == summary_.admitted;
  summary_.slosMet = summary_.sloP99Met && summary_.sloRejectedMet &&
                     summary_.sloCompletedMet;

  // Store + per-device families (bound late so a scheduler that never ran
  // exports only the admission counters). Every miss is a compile of a new
  // key, so misses and unique digests both equal compiles.
  const CircuitStoreStats& cs = pool_->store().stats();
  reg_.counter("vfpga_cluster_cache_hits_total", {},
               "Bitstream cache hits") += cs.hits;
  reg_.counter("vfpga_cluster_cache_misses_total", {},
               "Bitstream cache misses (compiles)") += cs.compiles;
  reg_.gauge("vfpga_cluster_cache_hit_rate", {},
             "hits / (hits + misses)")
      .set(pool_->store().hitRate());
  reg_.gauge("vfpga_cluster_cache_unique_digests", {},
             "Distinct compile digests requested")
      .set(static_cast<double>(cs.compiles));
  for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
    const DeviceNode& node = pool_->node(d);
    reg_.gauge("vfpga_cluster_device_usable_columns",
               {{"device", node.name()}},
               "Largest usable column span at campaign end")
        .set(static_cast<double>(node.usableColumns()));
    std::uint64_t completedHere = 0;
    for (const ClusterJobOutcome& out : outcomes_) {
      if (out.completed && out.device == node.name()) ++completedHere;
    }
    reg_.gauge("vfpga_cluster_device_jobs_completed",
               {{"device", node.name()}},
               "Jobs that finished on this device")
        .set(static_cast<double>(completedHere));
  }
  // Per-task / per-class cost attribution (vfpga_profile_*): the same
  // rollup a single-kernel profile publishes, summed across devices.
  resourceLedger().publish(reg_);
}

obs::profile::ResourceLedger ClusterScheduler::resourceLedger() const {
  obs::profile::ResourceLedger ledger;
  for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
    const DeviceNode& node = pool_->node(d);
    const obs::profile::ResourceLedger part =
        buildLedger(node.kernel(), node.name());
    for (std::size_t t = 0; t < part.rows().size(); ++t) {
      obs::profile::LedgerRow row = part.rows()[t];
      // Store attribution: each distinct workload the task's program
      // references was either compiled on this node or served from the
      // shared store when the pool registered it here.
      const TaskRuntime& tr = node.kernel().tasks()[t];
      std::vector<ConfigId> seen;
      for (const TaskOp& op : tr.spec.ops) {
        const auto* fx = std::get_if<FpgaExec>(&op);
        if (fx == nullptr ||
            std::find(seen.begin(), seen.end(), fx->config) != seen.end()) {
          continue;
        }
        seen.push_back(fx->config);
        if (fx->config < pool_->workloadCount() &&
            pool_->workloadCached(fx->config, d)) {
          ++row.cacheHits;
        } else {
          ++row.cacheMisses;
        }
      }
      ledger.add(std::move(row));
    }
  }
  return ledger;
}

std::string ClusterScheduler::renderReport() const {
  std::string out;
  out += "vfpga cluster campaign\n";
  out += "======================\n";
  out += "policy            : ";
  out += placementPolicyName(options_.placement);
  out += "\n";
  out += "devices           : " + u64(pool_->nodeCount()) + "\n";
  for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
    const DeviceNode& node = pool_->node(d);
    std::uint64_t completedHere = 0;
    for (const ClusterJobOutcome& o : outcomes_) {
      if (o.completed && o.device == node.name()) ++completedHere;
    }
    out += "  " + node.name() + ": " + node.profile().name + "  usable=" +
           u64(node.usableColumns()) + "/" +
           u64(node.profile().geometry.cols) +
           "  jobs_completed=" + u64(completedHere) + "\n";
  }
  const Summary& s = summary_;
  out += "jobs              : " + u64(s.submitted) + " submitted, " +
         u64(s.admitted) + " admitted, " + u64(s.rejected) + " rejected\n";
  out += "outcomes          : " + u64(s.completed) + " completed, " +
         u64(s.parked) + " parked\n";
  out += "migrations        : " + u64(s.migrationsDrain) + " drain, " +
         u64(s.migrationsRebalance) + " rebalance\n";
  const CircuitStoreStats& cs = pool_->store().stats();
  out += "bitstream cache   : " + u64(cs.compiles) + " compiles, " +
         u64(cs.hits) + " hits, " + u64(cs.compiles) + " misses\n";
  out += "cache hit rate    : " + fixed4(pool_->store().hitRate()) + "\n";
  out += "unique digests    : " + u64(cs.compiles) + "\n";
  out += "queue wait p50    : " + u64(s.p50QueueWaitNs) + " ns\n";
  out += "queue wait p99    : " + u64(s.p99QueueWaitNs) + " ns\n";
  out += "makespan          : " + u64(s.makespanNs) + " ns\n";
  out += "throughput        : " + fixed4(s.throughputJobsPerSec) + " jobs/s\n";
  out += "slo p99 wait      : ";
  out += s.sloP99Met ? "ok" : "VIOLATED";
  out += options_.slos.maxP99QueueWaitNs == 0
             ? " (unbounded)"
             : " (p99 " + u64(s.p99QueueWaitNs) + " ns vs " +
                   u64(options_.slos.maxP99QueueWaitNs) + " ns)";
  out += "\n";
  out += "slo rejected frac : ";
  out += s.sloRejectedMet ? "ok" : "VIOLATED";
  out += " (" + fixed4(s.rejectedFraction) + " vs " +
         fixed4(options_.slos.maxRejectedFraction) + ")";
  out += "\n";
  out += "slo completion    : ";
  out += s.sloCompletedMet ? "ok" : "VIOLATED";
  out += "\n";
  out += "slos met          : ";
  out += s.slosMet ? "yes" : "NO";
  out += "\n";
  out += "jobs:\n";
  out += "  name submit_ns wait_ns finish_ns device migrations outcome\n";
  for (const ClusterJobOutcome& o : outcomes_) {
    const char* outcome = !o.admitted ? "rejected"
                          : o.completed ? "completed"
                          : o.parked ? "parked"
                                     : "incomplete";
    out += "  " + o.name + " " + u64(o.submitAt) + " " + u64(o.queueWaitNs) +
           " " + u64(o.finishNs) + " " +
           (o.device.empty() ? std::string("-") : o.device) + " " +
           u64(o.migrations) + " " + outcome + "\n";
  }
  return out;
}

std::string ClusterScheduler::renderJsonReport() const {
  const Summary& s = summary_;
  const CircuitStoreStats& cs = pool_->store().stats();
  std::string out = "{\n";
  out += "  \"policy\": \"" + std::string(placementPolicyName(
                                  options_.placement)) + "\",\n";
  out += "  \"devices\": [\n";
  for (std::size_t d = 0; d < pool_->nodeCount(); ++d) {
    const DeviceNode& node = pool_->node(d);
    out += "    {\"name\": \"" + node.name() + "\", \"profile\": \"" +
           node.profile().name + "\", \"usable_columns\": " +
           u64(node.usableColumns()) + ", \"total_columns\": " +
           u64(node.profile().geometry.cols) + "}";
    out += d + 1 < pool_->nodeCount() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"summary\": {\n";
  out += "    \"submitted\": " + u64(s.submitted) + ",\n";
  out += "    \"admitted\": " + u64(s.admitted) + ",\n";
  out += "    \"rejected\": " + u64(s.rejected) + ",\n";
  out += "    \"completed\": " + u64(s.completed) + ",\n";
  out += "    \"parked\": " + u64(s.parked) + ",\n";
  out += "    \"migrations_drain\": " + u64(s.migrationsDrain) + ",\n";
  out += "    \"migrations_rebalance\": " + u64(s.migrationsRebalance) +
         ",\n";
  out += "    \"cache_compiles\": " + u64(cs.compiles) + ",\n";
  out += "    \"cache_hits\": " + u64(cs.hits) + ",\n";
  out += "    \"cache_misses\": " + u64(cs.compiles) + ",\n";
  out += "    \"cache_unique_digests\": " + u64(cs.compiles) + ",\n";
  out += "    \"cache_hit_rate\": " + fixed4(pool_->store().hitRate()) +
         ",\n";
  out += "    \"p50_queue_wait_ns\": " + u64(s.p50QueueWaitNs) + ",\n";
  out += "    \"p99_queue_wait_ns\": " + u64(s.p99QueueWaitNs) + ",\n";
  out += "    \"makespan_ns\": " + u64(s.makespanNs) + ",\n";
  out += "    \"throughput_jobs_per_sec\": " +
         fixed4(s.throughputJobsPerSec) + ",\n";
  out += "    \"rejected_fraction\": " + fixed4(s.rejectedFraction) + ",\n";
  out += "    \"slos_met\": ";
  out += s.slosMet ? "true" : "false";
  out += "\n  },\n";
  out += "  \"jobs\": [\n";
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    const ClusterJobOutcome& o = outcomes_[i];
    const char* outcome = !o.admitted ? "rejected"
                          : o.completed ? "completed"
                          : o.parked ? "parked"
                                     : "incomplete";
    out += "    {\"name\": \"" + o.name + "\", \"submit_ns\": " +
           u64(o.submitAt) + ", \"wait_ns\": " + u64(o.queueWaitNs) +
           ", \"finish_ns\": " + u64(o.finishNs) + ", \"device\": \"" +
           o.device + "\", \"migrations\": " + u64(o.migrations) +
           ", \"outcome\": \"" + outcome + "\"}";
    out += i + 1 < outcomes_.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace vfpga::cluster
