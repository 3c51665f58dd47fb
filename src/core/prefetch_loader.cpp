#include "core/prefetch_loader.hpp"

#include <stdexcept>

#include "core/circuit_io.hpp"

namespace vfpga {

PrefetchLoader::PrefetchLoader(Device& device, ConfigPort& port,
                               ConfigRegistry& registry, Compiler& compiler)
    : dev_(&device), port_(&port), registry_(&registry), compiler_(&compiler),
      halfWidth_(static_cast<std::uint16_t>(device.geometry().cols / 2)) {
  if (halfWidth_ == 0) throw std::invalid_argument("device too narrow");
  if (!port.spec().partialReconfig) {
    throw std::invalid_argument(
        "prefetching needs a partial-reconfiguration port (a background "
        "download must not rewrite the active half)");
  }
}

const CompiledCircuit& PrefetchLoader::placedIn(ConfigId id, int half) {
  const CompiledCircuit& canon = registry_->circuit(id);
  if (!canon.relocatable || canon.region.w > halfWidth_) {
    throw std::invalid_argument(
        "prefetched circuits must be relocatable and fit half the device: " +
        canon.name);
  }
  const auto x0 = static_cast<std::uint16_t>(half == 0 ? 0 : halfWidth_);
  return registry_->placed(id, x0, *compiler_);
}

SimDuration PrefetchLoader::loadInto(ConfigId id, int half) {
  const CompiledCircuit& c = placedIn(id, half);
  // Blank whatever the half held and write the circuit in one pass over the
  // half's columns: those the circuit's frames do not cover are written blank.
  const std::uint16_t c0 = static_cast<std::uint16_t>(half == 0 ? 0 : halfWidth_);
  const std::uint16_t c1 = static_cast<std::uint16_t>(c0 + halfWidth_ - 1);
  const Bitstream bs =
      port_->columnsBitstream(c.partialBitstream(), c0, c1,
                              /*changedOnly=*/true);
  return installCircuit(*dev_, *port_, c, bs).time();
}

std::optional<ConfigId> PrefetchLoader::predictAfter(ConfigId id) const {
  auto it = transitions_.find(id);
  if (it == transitions_.end() || it->second.empty()) return std::nullopt;
  ConfigId best = kNoConfig;
  std::uint64_t bestCount = 0;
  for (const auto& [next, count] : it->second) {
    if (count > bestCount) {
      best = next;
      bestCount = count;
    }
  }
  return best;
}

void PrefetchLoader::startPrefetch(SimTime from) {
  const auto predicted = predictAfter(active_);
  if (!predicted || *predicted == active_) {
    shadow_ = kNoConfig;
    return;
  }
  const int shadowHalf = 1 - activeHalf_;
  const SimDuration cost = loadInto(*predicted, shadowHalf);
  shadow_ = *predicted;
  shadowReady_ = from + cost;
}

PrefetchLoader::SwitchResult PrefetchLoader::activate(ConfigId id,
                                                      SimTime now) {
  if (now < lastNow_) throw std::logic_error("time went backwards");
  lastNow_ = now;
  SwitchResult r;
  if (id == active_) return r;

  if (active_ != kNoConfig) ++transitions_[active_][id];

  if (shadow_ == id) {
    // Prediction hit: wait out whatever remains of the background load.
    r.predicted = true;
    ++hits_;
    r.stall = shadowReady_ > now ? shadowReady_ - now : 0;
    activeHalf_ = 1 - activeHalf_;
  } else {
    // Miss: demand-load into the shadow half, then flip.
    ++misses_;
    const int shadowHalf = 1 - activeHalf_;
    // The port may still be busy with a useless prefetch; its remaining
    // time serializes in front of the demand load.
    const SimDuration pending = shadowReady_ > now ? shadowReady_ - now : 0;
    r.stall = pending + loadInto(id, shadowHalf);
    activeHalf_ = shadowHalf;
  }
  active_ = id;
  shadow_ = kNoConfig;
  stallTotal_ += r.stall;
  startPrefetch(now + r.stall);
  return r;
}

LoadedCircuit PrefetchLoader::loaded() {
  if (active_ == kNoConfig) throw std::logic_error("nothing active");
  return LoadedCircuit(*dev_, placedIn(active_, activeHalf_));
}

}  // namespace vfpga
