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
  //    The snapshot is CRC-sealed before the fault plan gets a chance to
  //    rot it, so corruption is detected at restore time.
  if (current_ != kNoConfig) {
    const CompiledCircuit& outgoing = registry_->circuit(current_);
    if (saveOutgoing && outgoing.ffCount() > 0 &&
        port_->spec().stateAccess) {
      LoadedCircuit lc(*dev_, outgoing);
      Saved& entry = savedStates_[current_];
      entry.bits = lc.saveState();
      entry.crc = fault::stateCrc(entry.bits);
      if (plan_) plan_->corruptState(entry.bits);
      cost.saveTime = port_->chargeStateRead(outgoing.ffCount());
    } else {
      savedStates_.erase(current_);  // roll-back: intermediate state lost
    }
  }

  // 2. Download. A partial port writes only the differing frames (old
  //    circuit erased, new one written in one pass); a serial-full port
  //    rewrites the whole device. With verification enabled each transfer
  //    is readback-checked and retried on mismatch up to the budget.
  fault::DownloadOutcome dl;
  const Bitstream bs = port_->columnsBitstream(
      incoming.image, 0,
      static_cast<std::uint16_t>(dev_->geometry().cols - 1),
      /*changedOnly=*/true);
  if (!bs.frames.empty()) {
    dl = fault::downloadWithRetry(*port_, bs, recovery_);
    cost.downloaded = true;
  }
  current_ = id;
  cost.downloadTime = dl.time;
  cost.retries = dl.retries;
  cost.aborts = dl.aborts;
  if (cost.downloaded) ++stats_.downloads;
  stats_.downloadRetries += static_cast<std::uint64_t>(dl.retries);
  stats_.downloadAborts += dl.aborts;
  stats_.verifyFailures += dl.verifyFailures;
  if (!dl.ok) {
    // Retry budget exhausted: the device holds a corrupt configuration.
    // Skip state restore — the caller decides whether to park the task or
    // try a different configuration; the config RAM stays as-is until the
    // next download or scrub repairs it.
    cost.downloadFailed = true;
    ++stats_.switches;
    cost.total = cost.saveTime + cost.downloadTime;
    return cost;
  }

  // 3. Restore the incoming circuit's registers: its previously saved
  //    state when it was preempted, otherwise its declared initial values.
  //    A snapshot that fails its CRC is discarded and the circuit restarts
  //    from initial values (graceful degradation: recompute, don't crash).
  if (incoming.ffCount() > 0) {
    LoadedCircuit lc(*dev_, incoming);
    auto it = savedStates_.find(id);
    if (it != savedStates_.end() &&
        fault::stateCrc(it->second.bits) != it->second.crc) {
      ++stats_.stateCrcFailures;
      savedStates_.erase(it);
      it = savedStates_.end();
      cost.stateCorrupt = true;
    }
    if (it != savedStates_.end()) {
      lc.restoreState(it->second.bits);
      cost.restoreTime = port_->chargeStateWrite(incoming.ffCount());
      cost.restoredSavedState = true;
    } else {
      lc.applyInitialState();
      // On a port without readback the initial values come for free with
      // the configuration itself (init-by-configuration); with readback we
      // model them as a state writeback.
      if (incoming.needsInitialState() && port_->spec().stateAccess) {
        cost.restoreTime = port_->chargeStateWrite(incoming.ffCount());
      }
    }
  }

  ++stats_.switches;
  cost.total = cost.saveTime + cost.downloadTime + cost.restoreTime;
  return cost;
}

}  // namespace vfpga
