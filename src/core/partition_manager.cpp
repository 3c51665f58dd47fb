#include "core/partition_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/kernel_check.hpp"

namespace vfpga {

namespace {

StripAllocator makeAllocator(const Device& dev,
                             const PartitionManagerOptions& options) {
  const std::uint16_t cols = dev.geometry().cols;
  if (options.fixedWidths.empty()) return StripAllocator(cols);
  return StripAllocator(cols, options.fixedWidths);
}

}  // namespace

PartitionManager::PartitionManager(Device& device, ConfigPort& port,
                                   ConfigRegistry& registry,
                                   Compiler& compiler,
                                   PartitionManagerOptions options)
    : dev_(&device), port_(&port), registry_(&registry), compiler_(&compiler),
      options_(std::move(options)), alloc_(makeAllocator(device, options_)) {}

bool PartitionManager::feasible(ConfigId id) const {
  const CompiledCircuit& c = registry_->circuit(id);
  if (!c.relocatable) return false;
  const auto pinned = [this](const Strip& s) {
    return std::find(pinned_.begin(), pinned_.end(), s.id) != pinned_.end();
  };
  if (alloc_.isFixed()) {
    for (const Strip& s : alloc_.strips()) {
      if (!s.faulty && !pinned(s) && s.width >= c.region.w) return true;
    }
    return false;
  }
  // Compaction packs each run between faulty columns, pinned strips
  // included, so a run offers its width minus the pinned columns.
  std::uint16_t best = 0;
  std::uint16_t run = 0;
  for (const Strip& s : alloc_.strips()) {
    if (s.faulty) {
      best = std::max(best, run);
      run = 0;
    } else if (!pinned(s)) {
      run = static_cast<std::uint16_t>(run + s.width);
    }
  }
  return c.region.w <= std::max(best, run);
}

void PartitionManager::pin(PartitionId id) { pinned_.push_back(id); }

std::optional<PartitionManager::LoadResult> PartitionManager::load(
    ConfigId id, const SealedState* resume) {
  const CompiledCircuit& canon = registry_->circuit(id);
  if (!canon.relocatable) {
    throw std::logic_error("partitioned loading needs a relocatable circuit: " +
                           canon.name);
  }
  LoadResult result;
  auto grant = alloc_.allocate(canon.region.w, options_.fit);
  if (!grant && options_.garbageCollect && !alloc_.isFixed() &&
      alloc_.wouldFitAfterCompaction(canon.region.w)) {
    result.gcCost = compactNow();
    result.garbageCollected = true;
    grant = alloc_.allocate(canon.region.w, options_.fit);
  }
  if (!grant) return std::nullopt;

  result.partition = *grant;
  const Strip& strip = alloc_.strip(*grant);
  const CompiledCircuit* placed = nullptr;
  try {
    placed = &registry_->placed(id, strip.x0, *compiler_);
  } catch (...) {
    alloc_.release(*grant);  // a failed proof must not leave a busy strip
    throw;
  }
  const Installed in = installInto(*placed, resume);
  result.resumed = in.resumed;
  result.cost = in.resumed ? in.download.time : in.time();
  result.restoreCost = in.time() - result.cost;
  result.downloadFailed = !in.ok();
  // Fixed partitions may be wider than the circuit: blank the remainder so
  // a previous occupant's configuration cannot keep decoding there.
  if (strip.width > canon.region.w) {
    result.cost += blankColumns(
        static_cast<std::uint16_t>(strip.x0 + canon.region.w),
        static_cast<std::uint16_t>(strip.width - canon.region.w));
  }
  occupants_[*grant] = Occupant{id, placed};
  notifyOccupancy("allocate");
  if (analysis::invariantChecksEnabled()) checkInvariants();
  return result;
}

Installed PartitionManager::installInto(const CompiledCircuit& c,
                                        const SealedState* resume) {
  // A serial-full-only port cannot write one strip in isolation: it
  // re-downloads the whole intended image (which already holds the other
  // partitions) with the new strip merged in. A partial port downloads the
  // circuit's partial itself, bound by reference rather than copied.
  Bitstream merged;
  if (!port_->spec().partialReconfig) {
    merged = port_->columnsBitstream(c.partialBitstream(), c.region.x0,
                                     c.region.x1(), /*changedOnly=*/false);
  }
  const Bitstream& bs =
      port_->spec().partialReconfig ? c.partialBitstream() : merged;
  const Installed in =
      installCircuit(*dev_, *port_, c, bs, options_.recovery, resume);
  ftStats_.downloadRetries += static_cast<std::uint64_t>(in.download.retries);
  ftStats_.downloadAborts += in.download.aborts;
  // A failed download leaves the strip's configuration bad and its
  // registers untouched. The caller either unloads (and parks the task) or
  // lets the next scrub repair the RAM toward the golden image, which
  // already holds the intended config.
  if (!in.ok()) ++ftStats_.downloadFailures;
  return in;
}

SimDuration PartitionManager::blankColumns(std::uint16_t x0,
                                           std::uint16_t width) {
  return port_->download(port_->columnsBitstream(
      Bitstream{}, x0, static_cast<std::uint16_t>(x0 + width - 1),
      /*changedOnly=*/false));
}

SimDuration PartitionManager::blankInactiveStrips() {
  SimDuration cost = 0;
  for (const Strip& s : alloc_.strips()) {
    // Idle strips hold stale released configurations; faulty strips hold
    // whatever was resident when the column died. Either would keep
    // decoding into live neighbours, so both are deactivated.
    if (s.busy) continue;
    cost += blankColumns(s.x0, s.width);
  }
  return cost;
}

SimDuration PartitionManager::relocateOccupant(Occupant& occ,
                                               std::uint16_t fromX0,
                                               std::uint16_t toX0) {
  // Capture the register state *before* touching the configuration RAM,
  // sealed so that fault-plan corruption is detected at the resume.
  SealedState state;
  SimDuration cost =
      saveSealed(*dev_, *port_, *occ.circuit, state, options_.plan);
  // Blank the old strip (its columns may not be covered by any new
  // occupant after packing), then install at the new location.
  cost += blankColumns(fromX0, occ.circuit->region.w);
  occ.circuit = &registry_->placed(occ.config, toX0, *compiler_);
  ++relocationsDone_;
  if (sink_) {
    sink_(TraceKind::kRelocate, occ.circuit->name + ": x" +
                                    std::to_string(fromX0) + " -> x" +
                                    std::to_string(toX0));
  }
  // On a failed relocation download the config RAM is left bad, but the
  // golden image already holds the intent, so the next scrub repairs it.
  // A snapshot that rotted in transit is dropped: the circuit restarts
  // from its initial values instead of resuming with garbage.
  const Installed in = installInto(*occ.circuit, &state);
  cost += in.time();
  if (in.resumeCorrupt) ++ftStats_.stateCrcFailures;
  notifyOccupancy("relocate");
  return cost;
}

SimDuration PartitionManager::compactNow() {
  ++gcRuns_;
  SimDuration cost = 0;
  const auto moves = alloc_.compact();
  for (const auto& move : moves) {
    auto it = occupants_.find(move.id);
    if (it == occupants_.end()) {
      throw std::logic_error("compaction moved an unknown partition");
    }
    cost += relocateOccupant(it->second, move.fromX0, move.toX0);
  }
  return cost;
}

PartitionManager::QuarantineResult PartitionManager::quarantine(
    std::uint16_t column) {
  QuarantineResult res;
  // A compaction below may move occupants across the failed column, so
  // re-resolve which strip holds it on every attempt.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Strip* hit = &alloc_.stripAt(column);
    if (hit->faulty) {
      res.quarantined = true;  // already fenced off
      return res;
    }
    if (!hit->busy) {
      alloc_.quarantineColumn(column);
      ++ftStats_.quarantinedStrips;
      // Hygiene sweep: the split just created strip boundaries that no
      // longer align with the stale configurations released partitions
      // leave behind, so later allocations would dissect those remnants
      // into half-decoded garbage. Deactivate every idle region now.
      res.cost += blankInactiveStrips();
      res.quarantined = true;
      notifyOccupancy("quarantine");
      if (analysis::invariantChecksEnabled()) checkInvariants();
      return res;
    }
    // Busy strip: evacuate the occupant to another strip first.
    const PartitionId victim = hit->id;
    const std::uint16_t fromX0 = hit->x0;
    Occupant& occ = occupants_.at(victim);
    const std::uint16_t w = occ.circuit->region.w;
    auto grant = alloc_.allocate(w, options_.fit);
    if (!grant) {
      if (attempt == 0 && options_.garbageCollect && !alloc_.isFixed() &&
          alloc_.wouldFitAfterCompaction(w)) {
        res.cost += compactNow();
        continue;
      }
      res.deferred = true;  // caller retries after the next unload
      return res;
    }
    const std::uint16_t toX0 = alloc_.strip(*grant).x0;
    res.cost += relocateOccupant(occ, fromX0, toX0);
    occupants_[*grant] = occ;
    occupants_.erase(victim);
    std::replace(pinned_.begin(), pinned_.end(), victim, *grant);
    alloc_.release(victim);
    alloc_.quarantineColumn(column);
    ++ftStats_.quarantinedStrips;
    ++ftStats_.quarantineRelocations;
    res.cost += blankInactiveStrips();  // same hygiene sweep as the idle case
    res.quarantined = true;
    res.relocated = true;
    res.movedFrom = victim;
    res.movedTo = *grant;
    notifyOccupancy("quarantine");
    if (analysis::invariantChecksEnabled()) checkInvariants();
    return res;
  }
  res.deferred = true;
  return res;
}

SimDuration PartitionManager::unquarantine(std::uint16_t column) {
  const Strip& hit = alloc_.stripAt(column);
  if (!hit.faulty) return 0;  // never quarantined, or already healed
  // The RAM under the healed columns holds whatever the fault scrambled;
  // deactivate it before the strip can be granted again.
  const SimDuration cost = blankColumns(hit.x0, hit.width);
  alloc_.unquarantineColumn(column);
  ++ftStats_.stripsHealed;
  notifyOccupancy("heal");
  if (analysis::invariantChecksEnabled()) checkInvariants();
  return cost;
}

SimDuration PartitionManager::unload(PartitionId id) {
  auto it = occupants_.find(id);
  if (it == occupants_.end()) {
    throw std::logic_error("unload of an empty partition");
  }
  occupants_.erase(it);
  SimDuration cost = 0;
  // On a degraded device the quarantine splits have broken the alignment
  // between strip boundaries and released circuits, so a later split could
  // dissect this stale configuration into half-decoded garbage: deactivate
  // the strip on release. A healthy device keeps the free ride of leaving
  // the (aligned, harmless) configuration in the RAM.
  if (alloc_.quarantinedColumns() > 0) {
    const Strip& s = alloc_.strip(id);
    cost = blankColumns(s.x0, s.width);
  }
  alloc_.release(id);
  notifyOccupancy("release");
  if (analysis::invariantChecksEnabled()) checkInvariants();
  return cost;
}

LoadedCircuit PartitionManager::loaded(PartitionId id) {
  return LoadedCircuit(*dev_, circuitIn(id));
}

const CompiledCircuit& PartitionManager::circuitIn(PartitionId id) const {
  auto it = occupants_.find(id);
  if (it == occupants_.end()) {
    throw std::out_of_range("partition has no occupant");
  }
  return *it->second.circuit;
}

std::vector<PartitionId> PartitionManager::occupiedPartitions() const {
  std::vector<PartitionId> ids;
  ids.reserve(occupants_.size());
  for (const auto& [id, occ] : occupants_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void PartitionManager::checkInvariants() const {
  analysis::Report rep;
  analysis::verifyStrips(alloc_.strips(), alloc_.columns(), alloc_.isFixed(),
                         rep);
  std::vector<analysis::OccupantInfo> occ;
  occ.reserve(occupants_.size());
  for (const auto& [partition, o] : occupants_) {
    occ.push_back(analysis::OccupantInfo{partition, o.circuit->region.x0,
                                         o.circuit->region.w,
                                         o.circuit->name});
  }
  analysis::verifyOccupancy(alloc_.strips(), occ, rep);
  analysis::throwIfErrors(rep, "PartitionManager");
}

}  // namespace vfpga
