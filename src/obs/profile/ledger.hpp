// Resource ledger: attributes simulated cost — FPGA cycles, config-port
// bits, downloads vs resident-config hits, circuit-store hits/misses,
// relocations, preemptions, migrations, wait/exec time — per task, and
// rolls the rows up per priority class. The rollup publishes through
// MetricsRegistry so exporters, bench sidecars and the cluster report all
// see the same numbers; this is the per-tenant cost attribution the
// planet-scale serving arc (ROADMAP item 2) charges admission against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"

namespace vfpga::obs::profile {

struct LedgerRow {
  std::string task;
  std::string device;  ///< owning device ("" for a single-kernel run)
  int priority = 0;
  bool completed = false;
  std::uint64_t fpgaCycles = 0;   ///< fabric cycles actually executed
  std::uint64_t configBits = 0;   ///< config-port bits written for this task
  std::uint64_t downloads = 0;    ///< downloads the task paid for
  std::uint64_t configHits = 0;   ///< grants served by a resident config
  std::uint64_t cacheHits = 0;    ///< CircuitStore hits (cluster runs)
  std::uint64_t cacheMisses = 0;  ///< CircuitStore compiles (cluster runs)
  std::uint64_t relocations = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t migrations = 0;
  std::uint64_t checkpoints = 0;        ///< durable checkpoints written
  std::uint64_t restores = 0;           ///< admissions from a checkpoint
  std::uint64_t checkpointedBytes = 0;  ///< bytes written to the store
  std::uint64_t waitNs = 0;
  std::uint64_t execNs = 0;
};

class ResourceLedger {
 public:
  void add(LedgerRow row) { rows_.push_back(std::move(row)); }
  const std::vector<LedgerRow>& rows() const { return rows_; }

  /// Per-priority-class rollup, sorted by ascending priority.
  struct ClassRollup {
    int priority = 0;
    std::uint64_t tasks = 0;
    std::uint64_t completed = 0;
    std::uint64_t fpgaCycles = 0;
    std::uint64_t configBits = 0;
    std::uint64_t downloads = 0;
    std::uint64_t configHits = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t relocations = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t migrations = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t restores = 0;
    std::uint64_t checkpointedBytes = 0;
    std::uint64_t waitNs = 0;
    std::uint64_t execNs = 0;
  };
  std::vector<ClassRollup> byClass() const;

  /// Publishes per-task and per-class series (vfpga_profile_task_* /
  /// vfpga_profile_class_*) into the registry.
  void publish(MetricsRegistry& registry) const;

  /// Deterministic renders (rows in insertion order — task order).
  std::string renderText() const;
  std::string renderJson() const;

 private:
  std::vector<LedgerRow> rows_;
};

}  // namespace vfpga::obs::profile
