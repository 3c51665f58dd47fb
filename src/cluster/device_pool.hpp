// DevicePool: N simulated FPGA devices, each with its own OsKernel,
// sharing one discrete-event Simulation and one CircuitStore.
//
// The pool is the cluster's hardware inventory. Every node owns a full
// per-device stack (Device, ConfigPort, Compiler, optional FaultPlan,
// OsKernel, occupancy heatmap); the pool guarantees the property the
// migration protocol depends on: every workload is registered on every
// kernel in the same order, so a ConfigId names the same circuit
// cluster-wide and a migration ticket's continuation can be resubmitted to
// any node verbatim. Nodes of one fabric register the same stored entry,
// so a workload is compiled, decoded and relocated once per fabric.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/os_kernel.hpp"
#include "fabric/device_family.hpp"
#include "fault/fault_plan.hpp"
#include "obs/heatmap.hpp"
#include "sim/compiled/compiled_fabric.hpp"
#include "sim/event_queue.hpp"

namespace vfpga::cluster {

/// FNV-1a digest of a registration: canonical netlist text, the name it is
/// registered under, the fabric (geometry, frame bits and timing, on which
/// the entry's clock period depends) and the strip width. Identical inputs
/// produce identical digests on every platform; this is the store's key.
std::uint64_t compileDigest(const Netlist& nl, const std::string& name,
                            const DeviceProfile& profile, std::uint16_t width);

/// Construction recipe for one pool member.
struct DeviceNodeSpec {
  std::string name;           ///< report label, e.g. "dev0"
  DeviceProfile profile;      ///< fabric family (heterogeneous pools OK)
  /// Per-device fault campaign; inert when `faulty` is false.
  fault::FaultPlanSpec faultSpec;
  bool faulty = false;
  /// Readback-scrubber period when a plan is installed (0 = no scrubbing).
  SimDuration scrubInterval = 0;
};

/// One device and its kernel. Construction order inside matters (device
/// before port before compiler before kernel), hence the owning class.
class DeviceNode {
 public:
  DeviceNode(Simulation& sim, const DeviceNodeSpec& spec, OsOptions options);
  DeviceNode(const DeviceNode&) = delete;
  DeviceNode& operator=(const DeviceNode&) = delete;

  const std::string& name() const { return name_; }
  const DeviceProfile& profile() const { return profile_; }
  Device& device() { return dev_; }
  Compiler& compiler() { return compiler_; }
  OsKernel& kernel() { return kernel_; }
  const OsKernel& kernel() const { return kernel_; }
  obs::HeatmapCollector& heatmap() { return heatmap_; }
  const obs::HeatmapCollector& heatmap() const { return heatmap_; }

  /// Widest contiguous run of non-quarantined columns: the node's current
  /// capacity ceiling (drain trigger input).
  std::uint16_t usableColumns() const;
  /// Queue-depth load figure: FPGA waiters + in-flight executions.
  std::size_t load() const {
    return kernel_.fpgaWaitingCount() + kernel_.runningExecCount();
  }

 private:
  std::string name_;
  DeviceProfile profile_;
  Device dev_;
  ConfigPort port_;
  Compiler compiler_;
  std::unique_ptr<fault::FaultPlan> plan_;
  OsKernel kernel_;
  obs::HeatmapCollector heatmap_;

  static OsOptions withFaults(OsOptions options, fault::FaultPlan* plan,
                              SimDuration scrubInterval);
};

/// Cluster-wide workload id; equal to the ConfigId the workload got on
/// every kernel (registration order is identical across nodes).
using WorkloadId = ConfigId;

/// One deterministic cycle-level fabric replay campaign across the pool:
/// every node downloads the workload's bitstream and replays `cycles`
/// seeded-stimulus cycles on its own fabric, each device on its own worker
/// thread when `threads` > 1, with per-device output/state digests folded
/// at sync points. No state is shared between workers except the mutexed
/// compiled-kernel cache, so the merged report is byte-identical for any
/// thread count — the determinism tests and bench_e13 check exactly that.
struct FabricReplaySpec {
  WorkloadId workload = 0;
  std::uint64_t cycles = 10000;
  std::uint64_t syncEvery = 1024;  ///< digest sync-point interval (0 = end only)
  unsigned threads = 1;            ///< worker threads (1 = run inline)
  std::uint64_t seed = 1;
  bool compiledFastPath = true;    ///< false = force interpretive replay
};

struct FabricReplayResult {
  struct PerDevice {
    std::string device;
    std::uint64_t digest = 0;  ///< outputs per cycle + FF state per sync
    std::uint64_t cycles = 0;
    std::uint64_t syncPoints = 0;
    /// Engine counters for this device's replay (all zero interpretive).
    compiled::CompiledFabricStats stats;
  };
  std::vector<PerDevice> devices;  ///< node order — the deterministic merge
  std::uint64_t mergedDigest = 0;  ///< per-device digests folded in order
};

class DevicePool {
 public:
  /// Base OsOptions are applied to every node (policy is forced to
  /// kPartitionedVariable — the only policy the migration datapath
  /// supports); per-node fault plans come from the specs.
  DevicePool(Simulation& sim, const std::vector<DeviceNodeSpec>& specs,
             CircuitStore& store, OsOptions baseOptions = {});

  std::size_t nodeCount() const { return nodes_.size(); }
  DeviceNode& node(std::size_t i) { return *nodes_[i]; }
  const DeviceNode& node(std::size_t i) const { return *nodes_[i]; }

  /// Compiles `nl` as `name` once per distinct fabric (via the shared
  /// store) and registers the stored entry on every kernel. Returns the
  /// cluster-wide id. Must complete before any kernel starts.
  WorkloadId registerWorkload(const std::string& name, const Netlist& nl,
                              std::uint16_t width);

  std::uint16_t workloadWidth(WorkloadId id) const {
    return entries_.at(id).front()->circuit().region.w;
  }
  std::size_t workloadCount() const { return entries_.size(); }
  CircuitStore& store() { return *store_; }

  /// True when `id`'s entry for node `d` was served from the shared store
  /// (some earlier node of the same fabric paid the compile). The resource
  /// ledger attributes cache hits/misses from this.
  bool workloadCached(WorkloadId id, std::size_t d) const {
    return cached_.at(id).at(d);
  }

  /// Pool-wide compiled-kernel cache: nodes holding bit-identical images
  /// share one levelized program (first replay builds, the rest hit).
  compiled::CompiledKernelCache& kernelCache() { return kernelCache_; }

  /// Runs the replay campaign. NOTE: this *reconfigures* every device
  /// (clearConfig + full download of the workload's bitstream, outside the
  /// kernels' ConfigPorts) — run it before or after an OS campaign, never
  /// mid-flight.
  FabricReplayResult replayFabrics(const FabricReplaySpec& spec);

 private:
  Simulation* sim_;
  CircuitStore* store_;
  std::vector<std::unique_ptr<DeviceNode>> nodes_;
  std::vector<std::vector<bool>> cached_;  ///< [workload][node] store hit
  /// [workload][node] entry registered there (fabric replay reads it).
  std::vector<std::vector<std::shared_ptr<const StoredCircuit>>> entries_;
  compiled::CompiledKernelCache kernelCache_{64};
};

}  // namespace vfpga::cluster
