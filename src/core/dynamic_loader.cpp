#include "core/dynamic_loader.hpp"

#include <stdexcept>

namespace vfpga {

LoadedCircuit DynamicLoader::loaded() {
  if (current_ == kNoConfig) {
    throw std::logic_error("no configuration resident");
  }
  return LoadedCircuit(*dev_, registry_->circuit(current_));
}

DynamicLoader::SwitchCost DynamicLoader::activate(ConfigId id,
                                                  bool saveOutgoing) {
  SwitchCost cost;
  if (id == current_) return cost;  // "most recently used" shortcut, §3
  const CompiledCircuit& incoming = registry_->circuit(id);

  // 1. Save the outgoing circuit's registers so it can be resumed later.
  //    The snapshot is sealed before the fault plan gets a chance to rot
  //    it, so corruption is detected at restore time.
  if (current_ != kNoConfig) {
    const CompiledCircuit& outgoing = registry_->circuit(current_);
    if (saveOutgoing && outgoing.ffCount() > 0 &&
        port_->spec().stateAccess) {
      SealedState& entry = savedStates_[current_];
      cost.saveTime = saveRegisters(*dev_, *port_, outgoing, entry.bits);
      entry.seal(plan_);
    } else {
      savedStates_.erase(current_);  // roll-back: intermediate state lost
    }
  }

  // 2. Download, then restore the incoming circuit's registers: its saved
  //    state when it was preempted, otherwise its initial values. A partial
  //    port writes only the differing frames (old circuit erased, new one
  //    written in one pass); a serial-full port rewrites the whole device.
  //    A snapshot that fails its CRC is discarded and the circuit restarts
  //    from initial values (graceful degradation: recompute, don't crash).
  const Bitstream bs = port_->columnsBitstream(
      incoming.image, 0,
      static_cast<std::uint16_t>(dev_->geometry().cols - 1),
      /*changedOnly=*/true);
  const auto saved = savedStates_.find(id);
  const Installed in = installCircuit(
      *dev_, *port_, incoming, bs, recovery_,
      saved == savedStates_.end() ? nullptr : &saved->second);
  const fault::DownloadOutcome& dl = in.download;
  current_ = id;
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
  if (in.resumeCorrupt) {
    ++stats_.stateCrcFailures;
    savedStates_.erase(saved);
  }
  cost.restoreTime = in.stateTime;
  cost.restoredSavedState = in.resumed;

  ++stats_.switches;
  cost.total = cost.saveTime + cost.downloadTime + cost.restoreTime;
  return cost;
}

}  // namespace vfpga
