#include "cluster/device_pool.hpp"

#include <optional>
#include <stdexcept>

#include "netlist/text_io.hpp"
#include "sim/parallel.hpp"
#include "util/hash.hpp"

namespace vfpga::cluster {

std::uint64_t compileDigest(const Netlist& nl, const std::string& name,
                            const DeviceProfile& profile, std::uint16_t width) {
  // The name follows a NUL, which netlist text never holds.
  const std::string text = writeNetlistText(nl) + '\0' + name;
  std::uint64_t h = fnv1aBytes(
      kFnvOffset, {reinterpret_cast<const std::uint8_t*>(text.data()),
                   text.size()});
  const FabricGeometry& g = profile.geometry;
  const DeviceTiming& t = profile.timing;
  for (const std::uint64_t v : std::initializer_list<std::uint64_t>{
           g.rows, g.cols, g.lutInputs, g.wiresPerChannel, g.slotsPerPad,
           profile.frameBits, t.lutDelay, t.switchDelay, t.padDelay,
           t.clockMargin, width}) {
    h = fnv1aU64(h, v);
  }
  return h;
}

OsOptions DeviceNode::withFaults(OsOptions options, fault::FaultPlan* plan,
                                 SimDuration scrubInterval) {
  options.policy = FpgaPolicy::kPartitionedVariable;
  options.ft.plan = plan;
  options.ft.scrubInterval = plan ? scrubInterval : 0;
  return options;
}

DeviceNode::DeviceNode(Simulation& sim, const DeviceNodeSpec& spec,
                       OsOptions options)
    : name_(spec.name),
      profile_(spec.profile),
      dev_(profile_.makeDevice()),
      port_(dev_, profile_.port),
      compiler_(dev_),
      plan_(spec.faulty ? std::make_unique<fault::FaultPlan>(spec.faultSpec)
                        : nullptr),
      kernel_(sim, dev_, port_, compiler_,
              withFaults(options, plan_.get(), spec.scrubInterval)),
      heatmap_(profile_.geometry.cols) {
  kernel_.attachHeatmap(&heatmap_);
  // Every node numbers its bundles from 0: name them apart so that a
  // cluster-wide dump keeps each node's.
  kernel_.flightRecorder().options().prefix = "vfpga_flight_" + name_;
}

std::uint16_t DeviceNode::usableColumns() const {
  const PartitionManager* pm = kernel_.partitionManager();
  return pm ? pm->allocator().largestUsableSpan() : 0;
}

DevicePool::DevicePool(Simulation& sim,
                       const std::vector<DeviceNodeSpec>& specs,
                       CircuitStore& store, OsOptions baseOptions)
    : sim_(&sim), store_(&store) {
  if (specs.empty()) throw std::invalid_argument("DevicePool: no devices");
  nodes_.reserve(specs.size());
  for (const auto& spec : specs)
    nodes_.push_back(std::make_unique<DeviceNode>(sim, spec, baseOptions));
}

WorkloadId DevicePool::registerWorkload(const std::string& name,
                                        const Netlist& nl,
                                        std::uint16_t width) {
  WorkloadId id = kNoConfig;
  std::vector<bool> cachedPerNode;
  cachedPerNode.reserve(nodes_.size());
  std::vector<std::shared_ptr<const StoredCircuit>> entryPerNode;
  entryPerNode.reserve(nodes_.size());
  for (auto& nodePtr : nodes_) {
    DeviceNode& node = *nodePtr;
    const std::uint64_t hitsBefore = store_->stats().hits;
    auto entry = store_->getOrCompile(
        compileDigest(nl, name, node.profile(), width), node.device(), [&] {
          CompiledCircuit c = node.compiler().compile(
              nl, Region::columns(node.device().geometry(), 0, width));
          c.name = name;
          return c;
        });
    cachedPerNode.push_back(store_->stats().hits > hitsBefore);
    const ConfigId got = node.kernel().registerConfig(entry);
    entryPerNode.push_back(std::move(entry));
    if (id == kNoConfig) {
      id = got;
    } else if (got != id) {
      // Registration order is identical on every node, so ids must agree;
      // a mismatch means a kernel was used outside the pool's control.
      throw std::logic_error("DevicePool: ConfigId skew across nodes");
    }
  }
  cached_.push_back(std::move(cachedPerNode));
  entries_.push_back(std::move(entryPerNode));
  return id;
}

FabricReplayResult DevicePool::replayFabrics(const FabricReplaySpec& spec) {
  const auto& entries = entries_.at(spec.workload);
  FabricReplayResult result;
  result.devices.resize(nodes_.size());

  // Each worker touches only its own node's device and its own result
  // slot; the only shared mutable state is the mutexed kernel cache, so
  // the digests — and therefore the merged report — do not depend on the
  // thread count or on scheduling order.
  parallelFor(
      nodes_.size(),
      [&](std::size_t d) {
        DeviceNode& node = *nodes_[d];
        Device& dev = node.device();
        const CompiledCircuit& c = entries[d]->circuit();
        dev.clearConfig();
        dev.applyBitstream(c.fullBitstream());
        dev.resetFfs();

        const Elaboration& e = dev.elaboration();
        const std::vector<std::uint32_t> inputSlots = e.inputSlots;
        std::vector<std::uint32_t> outSlots;
        outSlots.reserve(e.padOuts.size());
        for (const Elaboration::PadOut& po : e.padOuts)
          outSlots.push_back(po.slot);

        std::optional<compiled::CompiledFabric> engine;
        if (spec.compiledFastPath) engine.emplace(dev, &kernelCache_);

        FabricReplayResult::PerDevice& out = result.devices[d];
        out.device = node.name();
        std::uint64_t h = kFnvOffset;
        for (std::uint64_t cyc = 0; cyc < spec.cycles; ++cyc) {
          for (std::size_t pos = 0; pos < inputSlots.size(); ++pos) {
            const std::uint64_t w = splitmix64(
                spec.seed ^ 0xd1342543de82ef95ull * (cyc + 1) ^
                0x9e6c63d0876a9a47ull * (d + 1) ^ (pos >> 6));
            dev.setPadSlotInput(inputSlots[pos], (w >> (pos & 63)) & 1);
          }
          dev.evaluate();
          std::uint64_t outs = 0;
          for (std::size_t i = 0; i < outSlots.size(); ++i) {
            if (dev.padSlotOutput(outSlots[i])) outs |= 1ull << (i & 63);
            if ((i & 63) == 63) {
              h = fnv1aU64(h, outs);
              outs = 0;
            }
          }
          h = fnv1aU64(h, outs);
          dev.tick();
          const bool syncPoint =
              (spec.syncEvery != 0 && (cyc + 1) % spec.syncEvery == 0) ||
              cyc + 1 == spec.cycles;
          if (syncPoint) {
            const std::vector<bool> ff = dev.ffState();
            std::uint64_t word = 0;
            for (std::size_t i = 0; i < ff.size(); ++i) {
              if (ff[i]) word |= 1ull << (i & 63);
              if ((i & 63) == 63) {
                h = fnv1aU64(h, word);
                word = 0;
              }
            }
            h = fnv1aU64(h, word);
            ++out.syncPoints;
          }
        }
        out.digest = h;
        out.cycles = spec.cycles;
        if (engine) out.stats = engine->stats();
      },
      spec.threads == 0 ? 1 : spec.threads);

  std::uint64_t merged = kFnvOffset;
  for (const FabricReplayResult::PerDevice& pd : result.devices) {
    merged = fnv1aU64(merged, pd.digest);
  }
  result.mergedDigest = merged;
  return result;
}

}  // namespace vfpga::cluster
