#include "core/dynamic_loader.hpp"

#include <stdexcept>

namespace vfpga {

LoadedCircuit DynamicLoader::loaded() {
  if (current_ == kNoConfig) {
    throw std::logic_error("no configuration resident");
  }
  return LoadedCircuit(*dev_, registry_->circuit(current_));
}

void DynamicLoader::adoptState(Owner owner, ConfigId id,
                               std::vector<bool> bits) {
  Snapshot& snap = saved_[owner];
  snap.config = id;
  snap.state.bits = std::move(bits);
  snap.state.seal(nullptr);
}

DynamicLoader::SwitchCost DynamicLoader::activate(ConfigId id, Owner owner,
                                                  bool saveOutgoing) {
  SwitchCost cost;
  // "most recently used" shortcut, §3
  if (id == current_ && owner == owner_) return cost;
  const CompiledCircuit& incoming = registry_->circuit(id);

  // 1. Save the outgoing owner's registers so it can be resumed later.
  //    The snapshot is sealed before the fault plan gets a chance to rot
  //    it, so corruption is detected at restore time. Without a save the
  //    outgoing owner's intermediate state is lost (roll-back).
  if (saveOutgoing && current_ != kNoConfig && owner_ != kNoOwner) {
    Snapshot out{current_, {}};
    cost.saveTime = saveSealed(*dev_, *port_, registry_->circuit(current_),
                               out.state, plan_);
    if (!out.state.bits.empty()) saved_[owner_] = std::move(out);
  }

  // 2. Download, then install the incoming owner's registers: its snapshot
  //    when it was preempted, otherwise the initial values. A partial port
  //    writes only the differing frames (old circuit erased, new one
  //    written in one pass); a serial-full port rewrites the whole device;
  //    the resident circuit needs no download at all. The install
  //    consumes the snapshot: one that fails its CRC is discarded and the
  //    circuit restarts from initial values (graceful degradation:
  //    recompute, don't crash), and a failed download leaves the
  //    registers alone.
  const Bitstream bs =
      id == current_
          ? Bitstream{}
          : port_->columnsBitstream(
                incoming.partialBitstream(), 0,
                static_cast<std::uint16_t>(dev_->geometry().cols - 1),
                /*changedOnly=*/true);
  const auto saved = saved_.find(owner);
  const Installed in = installCircuit(
      *dev_, *port_, incoming, bs, recovery_,
      saved == saved_.end() ? nullptr : &saved->second.state);
  const fault::DownloadOutcome& dl = in.download;
  current_ = id;
  owner_ = owner;
  cost.downloaded = !bs.frames.empty();
  cost.downloadTime = dl.time;
  if (cost.downloaded) ++stats_.downloads;
  stats_.downloadRetries += static_cast<std::uint64_t>(dl.retries);
  stats_.downloadAborts += dl.aborts;
  stats_.verifyFailures += dl.verifyFailures;
  // Retry budget exhausted: the device holds a corrupt configuration and
  // the registers were left alone. The caller decides whether to park the
  // task or try a different configuration; the config RAM stays as-is
  // until the next download or scrub repairs it.
  cost.downloadFailed = !in.ok();
  cost.resumeCorrupt = in.resumeCorrupt;
  if (in.resumeCorrupt) ++stats_.stateCrcFailures;
  if (saved != saved_.end()) saved_.erase(saved);
  cost.restoreTime = in.stateTime;
  cost.restoredSavedState = in.resumed;

  ++stats_.switches;
  cost.total = cost.saveTime + cost.downloadTime + cost.restoreTime;
  return cost;
}

}  // namespace vfpga
