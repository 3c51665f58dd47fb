#include "core/overlay_manager.hpp"

#include <stdexcept>

#include "analysis/equiv/verify.hpp"
#include "analysis/kernel_check.hpp"
#include "core/circuit_io.hpp"

namespace vfpga {

void OverlayManager::checkInvariants() const {
  analysis::Report rep;
  analysis::verifyOverlayLayout(
      residentCircuit_ ? &*residentCircuit_ : nullptr, overlays_, active_,
      residentWidth_, dev_->geometry().cols, rep);
  analysis::throwIfErrors(rep, "OverlayManager");
}

OverlayManager::OverlayManager(Device& device, ConfigPort& port,
                               Compiler& compiler,
                               std::uint16_t residentWidth)
    : dev_(&device), port_(&port), compiler_(&compiler),
      residentWidth_(residentWidth) {
  if (residentWidth >= device.geometry().cols) {
    throw std::invalid_argument("resident strip leaves no overlay area");
  }
}

std::uint16_t OverlayManager::overlayWidth() const {
  return static_cast<std::uint16_t>(dev_->geometry().cols - residentWidth_);
}

SimDuration OverlayManager::installResident(const CompiledCircuit& common) {
  if (common.region.w > residentWidth_) {
    throw std::invalid_argument("common circuit exceeds resident strip");
  }
  residentCircuit_ = analysis::equiv::relocateProven(*compiler_, common, 0);
  // A serial port rewrites the whole device: the overlay columns come from
  // the golden image, so a reinstall keeps the active overlay.
  Bitstream merged;
  if (!port_->spec().partialReconfig) {
    merged = port_->columnsBitstream(
        residentCircuit_->partialBitstream(), 0,
        static_cast<std::uint16_t>(residentWidth_ - 1), /*changedOnly=*/false);
  }
  const Bitstream& bs = port_->spec().partialReconfig
                            ? residentCircuit_->partialBitstream()
                            : merged;
  const SimDuration t =
      installCircuit(*dev_, *port_, *residentCircuit_, bs).time();
  if (analysis::invariantChecksEnabled()) checkInvariants();
  return t;
}

OverlayId OverlayManager::addOverlay(const CompiledCircuit& circuit) {
  if (circuit.region.w > overlayWidth()) {
    throw std::invalid_argument("overlay circuit exceeds overlay strip: " +
                                circuit.name);
  }
  overlays_.push_back(
      analysis::equiv::relocateProven(*compiler_, circuit, residentWidth_));
  if (analysis::invariantChecksEnabled()) checkInvariants();
  return static_cast<OverlayId>(overlays_.size() - 1);
}

OverlayManager::InvokeResult OverlayManager::invoke(OverlayId id) {
  if (id >= overlays_.size()) throw std::out_of_range("unknown overlay");
  ++invocations_;
  InvokeResult r;
  if (active_ && *active_ == id) {
    if (plan_ != nullptr && plan_->reuseEvictedOverlay()) {
      // Fault: the overlay strip no longer holds this circuit (evicted or
      // clobbered since the last invocation), but the manager's table says
      // it does. Readback verification catches the mismatch and recovers
      // with a forced reload; without verification the stale image would
      // be reused — never repair silently, so the hazard is only counted.
      if (verifyResidency_) {
        ++staleDetected_;
        active_.reset();  // fall through to the reload path below
      } else {
        ++staleSilent_;
        return r;
      }
    } else {
      return r;  // already loaded
    }
  }

  // Replace whatever occupies the overlay strip: the overlay columns get the
  // target's frames and blank frames where it has none, so one write both
  // installs the new function and erases the old one. A partial port
  // writes only the frames that differ from the configuration RAM; a
  // serial-full port rewrites the resident part too (as the port's golden
  // image holds it) — the very inefficiency overlaying is meant to avoid.
  const CompiledCircuit& target = overlays_[id];
  const Bitstream bs = port_->columnsBitstream(
      target.partialBitstream(), residentWidth_,
      static_cast<std::uint16_t>(dev_->geometry().cols - 1),
      /*changedOnly=*/true);
  r.cost = installCircuit(*dev_, *port_, target, bs).time();
  active_ = id;
  r.loaded = true;
  ++loads_;
  if (analysis::invariantChecksEnabled()) checkInvariants();
  return r;
}

LoadedCircuit OverlayManager::activeOverlay() {
  if (!active_) throw std::logic_error("no active overlay");
  return LoadedCircuit(*dev_, overlays_[*active_]);
}

LoadedCircuit OverlayManager::resident() {
  if (!residentCircuit_) throw std::logic_error("no resident circuit");
  return LoadedCircuit(*dev_, *residentCircuit_);
}

double OverlayManager::hitRate() const {
  if (invocations_ == 0) return 0.0;
  return 1.0 - static_cast<double>(loads_) /
                   static_cast<double>(invocations_);
}

}  // namespace vfpga
