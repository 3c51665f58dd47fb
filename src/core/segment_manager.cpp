#include "core/segment_manager.hpp"

#include <stdexcept>

#include "analysis/kernel_check.hpp"
#include "core/circuit_io.hpp"

namespace vfpga {

SegmentManager::SegmentManager(Device& device, ConfigPort& port,
                               Compiler& compiler, ReplacementPolicy policy)
    : dev_(&device), port_(&port), compiler_(&compiler), policy_(policy),
      alloc_(device.geometry().cols), segments_(device) {
  if (!port.spec().partialReconfig) {
    throw std::invalid_argument(
        "segmentation needs a partial-reconfiguration port (a segment fault "
        "writes one strip, not the whole device)");
  }
}

SegmentId SegmentManager::addSegment(const CompiledCircuit& circuit) {
  if (!circuit.relocatable) {
    throw std::invalid_argument("segments must be relocatable");
  }
  if (circuit.region.w > dev_->geometry().cols) {
    throw std::invalid_argument("segment wider than device");
  }
  return segments_.add(circuit);
}

std::optional<SegmentId> SegmentManager::evictionVictim() const {
  std::optional<SegmentId> victim;
  std::uint64_t best = UINT64_MAX;
  for (const auto& [seg, res] : residency_) {
    const std::uint64_t key =
        policy_ == ReplacementPolicy::kFifo ? res.loadedAt : res.lastUse;
    if (key < best || (key == best && (!victim || seg < *victim))) {
      best = key;
      victim = seg;
    }
  }
  return victim;
}

SegmentManager::AccessResult SegmentManager::access(SegmentId id) {
  if (id >= segments_.size()) throw std::out_of_range("unknown segment");
  ++accesses_;
  ++clock_;
  AccessResult r;
  if (auto it = residency_.find(id); it != residency_.end()) {
    if (plan_ != nullptr && plan_->corruptSegmentTable()) {
      // Fault: this entry's mapping is corrupt. Verification detects it
      // (the strip's readback no longer matches the segment) and recovers
      // by dropping the entry and re-faulting; without verification the
      // corrupt mapping is followed — counted, never silently repaired.
      if (verifyResidency_) {
        ++corruptDetected_;
        alloc_.release(it->second.strip);
        residency_.erase(it);
        // fall through to the segment-fault path below
      } else {
        ++corruptSilent_;
        it->second.lastUse = clock_;
        return r;
      }
    } else {
      it->second.lastUse = clock_;
      return r;  // hit
    }
  }
  r.fault = true;
  ++faults_;

  const std::uint16_t width = segments_.circuit(id).region.w;
  auto grant = alloc_.allocate(width);
  while (!grant) {
    // Evict until the segment fits; compaction merges the holes.
    auto victim = evictionVictim();
    if (!victim) {
      throw std::logic_error("segment cannot fit even on an empty device");
    }
    alloc_.release(residency_[*victim].strip);
    residency_.erase(*victim);
    ++evictions_;
    ++r.evicted;
    if (alloc_.largestFree() < width && alloc_.totalFree() >= width) {
      // Holes fragmented: compact. A moved segment is charged like any
      // relocation and keeps its registers: read at the old columns, and
      // resumed by the install at the new ones.
      for (const auto& move : alloc_.compact()) {
        for (auto& [seg, res] : residency_) {
          if (res.strip != move.id) continue;
          SealedState regs;
          r.cost += saveSealed(*dev_, *port_, *res.placed, regs, nullptr);
          res.placed = &segments_.placed(seg, move.toX0, *compiler_);
          const CompiledCircuit& moved = *res.placed;
          r.cost += installCircuit(*dev_, *port_, moved,
                                   moved.partialBitstream(), {}, &regs).time();
        }
      }
    }
    grant = alloc_.allocate(width);
  }
  const CompiledCircuit& placed =
      segments_.placed(id, alloc_.strip(*grant).x0, *compiler_);
  r.cost +=
      installCircuit(*dev_, *port_, placed, placed.partialBitstream()).time();
  residency_[id] = Residency{*grant, clock_, clock_, &placed};
  if (analysis::invariantChecksEnabled()) checkInvariants();
  return r;
}

LoadedCircuit SegmentManager::loaded(SegmentId id) {
  return LoadedCircuit(*dev_, *residency_.at(id).placed);
}

void SegmentManager::checkInvariants() const {
  analysis::Report rep;
  analysis::verifyStrips(alloc_.strips(), alloc_.columns(), alloc_.isFixed(),
                         rep);
  std::vector<analysis::SegmentResidencyInfo> resident;
  resident.reserve(residency_.size());
  for (const auto& [seg, res] : residency_) {
    resident.push_back(analysis::SegmentResidencyInfo{seg, res.strip});
  }
  analysis::verifySegmentResidency(alloc_.strips(), resident, rep);
  analysis::throwIfErrors(rep, "SegmentManager");
}

}  // namespace vfpga
