#include "place/placer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vfpga {

namespace {

/// Pseudo-position of port nets: ports are bound (by the compiler, in
/// order) to pads along the region's north and south edges, so anchor the
/// i-th port above/below the region, spread across its width.
CellSite portAnchor(const Region& r, std::size_t portIndex, bool isInput,
                    std::size_t portsOfKind) {
  const std::size_t denom = std::max<std::size_t>(portsOfKind, 1);
  const std::uint16_t x = static_cast<std::uint16_t>(
      r.x0 + portIndex * r.w / denom);
  // Inputs anchor south, outputs north (arbitrary but stable).
  const std::uint16_t y = isInput ? r.y0 : r.y1();
  return {std::min<std::uint16_t>(x, r.x1()), y};
}

/// Incremental-cost engine of place().
class CostModel {
 public:
  CostModel(const MappedNetlist& m, const Region& region)
      : m_(&m), region_(region), sinks_(m.computeSinks()),
        netsOfCell_(m.cells.size()) {
    for (NetId n = 0; n < m.netCount(); ++n) {
      const auto& s = sinks_[n];
      if (s.cellPins.empty() && s.outputPorts.empty()) continue;
      live_.push_back(n);
      if (!m.netIsInput(n)) addCellNet(m.cellOfNet(n), n);
      for (auto [cell, pin] : s.cellPins) {
        (void)pin;
        addCellNet(cell, n);
      }
    }
  }

  double netCost(NetId n, const std::vector<CellSite>& sites) const {
    int minX = 1 << 30, maxX = -(1 << 30), minY = 1 << 30, maxY = -(1 << 30);
    auto grow = [&](CellSite site) {
      minX = std::min(minX, static_cast<int>(site.x));
      maxX = std::max(maxX, static_cast<int>(site.x));
      minY = std::min(minY, static_cast<int>(site.y));
      maxY = std::max(maxY, static_cast<int>(site.y));
    };
    if (m_->netIsInput(n)) {
      grow(portAnchor(region_, n, true, m_->inputs.size()));
    } else {
      grow(sites[m_->cellOfNet(n)]);
    }
    const auto& s = sinks_[n];
    for (auto [cell, pin] : s.cellPins) {
      (void)pin;
      grow(sites[cell]);
    }
    for (std::uint32_t o : s.outputPorts) {
      grow(portAnchor(region_, o, false, m_->outputs.size()));
    }
    return (maxX - minX) + (maxY - minY);
  }

  double totalCost(const std::vector<CellSite>& sites) const {
    double cost = 0.0;
    for (NetId n : live_) cost += netCost(n, sites);
    return cost;
  }

  const std::vector<NetId>& netsOfCell(std::uint32_t c) const {
    return netsOfCell_[c];
  }

 private:
  void addCellNet(std::size_t cell, NetId n) {
    auto& v = netsOfCell_[cell];
    if (v.empty() || v.back() != n) v.push_back(n);
  }

  const MappedNetlist* m_;
  Region region_;
  std::vector<MappedNetlist::NetSinks> sinks_;
  std::vector<NetId> live_;
  std::vector<std::vector<NetId>> netsOfCell_;
};

}  // namespace

Placement place(const MappedNetlist& m, const Region& region, Rng& rng,
                const PlaceOptions& options) {
  if (m.cells.size() > region.clbCount()) {
    throw std::runtime_error("region too small: " +
                             std::to_string(m.cells.size()) + " cells into " +
                             std::to_string(region.clbCount()) + " CLBs");
  }
  Placement p;
  p.region = region;
  p.sites.resize(m.cells.size());

  // Initial placement: shuffled sites, cells take the first N.
  std::vector<CellSite> sites;
  sites.reserve(region.clbCount());
  for (std::uint16_t y = region.y0; y <= region.y1(); ++y) {
    for (std::uint16_t x = region.x0; x <= region.x1(); ++x) {
      sites.push_back(CellSite{x, y});
    }
  }
  for (std::size_t i = sites.size(); i > 1; --i) {
    std::swap(sites[i - 1], sites[rng.below(i)]);
  }
  std::vector<std::int32_t> occupant(sites.size(), -1);
  std::vector<std::uint32_t> siteOf(m.cells.size());
  for (std::uint32_t c = 0; c < m.cells.size(); ++c) {
    occupant[c] = static_cast<std::int32_t>(c);
    siteOf[c] = c;
    p.sites[c] = sites[c];
  }

  CostModel model(m, region);
  double cost = model.totalCost(p.sites);
  if (m.cells.size() <= 1 || sites.size() <= 1) {
    p.finalCost = cost;
    return p;
  }

  std::vector<NetId> touched;
  // Attempts one move; returns the (applied) cost delta, 0 if rejected.
  auto tryMove = [&](bool forceAccept, double T) -> double {
    const std::uint32_t c =
        static_cast<std::uint32_t>(rng.below(m.cells.size()));
    const std::uint32_t target =
        static_cast<std::uint32_t>(rng.below(sites.size()));
    const std::uint32_t from = siteOf[c];
    if (target == from) return 0.0;
    const std::int32_t other = occupant[target];

    touched.clear();
    for (NetId n : model.netsOfCell(c)) touched.push_back(n);
    if (other >= 0) {
      for (NetId n : model.netsOfCell(static_cast<std::uint32_t>(other))) {
        touched.push_back(n);
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

    double before = 0.0;
    for (NetId n : touched) before += model.netCost(n, p.sites);

    auto swapSites = [&]() {
      occupant[from] = other;
      occupant[target] = static_cast<std::int32_t>(c);
      siteOf[c] = target;
      p.sites[c] = sites[target];
      if (other >= 0) {
        siteOf[static_cast<std::uint32_t>(other)] = from;
        p.sites[static_cast<std::uint32_t>(other)] = sites[from];
      }
    };
    swapSites();

    double after = 0.0;
    for (NetId n : touched) after += model.netCost(n, p.sites);
    const double delta = after - before;

    bool keep = forceAccept || delta <= 0 ||
                (T > 0 && rng.uniform() < std::exp(-delta / T));
    if (keep) {
      cost += delta;
      return delta;
    }
    // Revert.
    occupant[target] = other;
    occupant[from] = static_cast<std::int32_t>(c);
    siteOf[c] = from;
    p.sites[c] = sites[from];
    if (other >= 0) {
      siteOf[static_cast<std::uint32_t>(other)] = target;
      p.sites[static_cast<std::uint32_t>(other)] = sites[target];
    }
    return 0.0;
  };

  // Initial temperature from the mean |delta| of forced probe moves.
  double sumAbs = 0.0;
  const int probes = 32;
  for (int i = 0; i < probes; ++i) sumAbs += std::abs(tryMove(true, 0.0));
  double T = std::max(
      1.0, (sumAbs / probes) / -std::log(options.initialAcceptance));
  const double T0 = T;
  const std::uint64_t movesPerTemp = std::max<std::uint64_t>(
      16, options.movesPerCellPerTemp * m.cells.size());
  while (T > options.stopTemperatureRatio * T0) {
    for (std::uint64_t i = 0; i < movesPerTemp; ++i) tryMove(false, T);
    T *= options.coolingFactor;
  }
  // Greedy cleanup pass at T = 0.
  for (std::uint64_t i = 0; i < movesPerTemp; ++i) tryMove(false, 0.0);

  p.finalCost = model.totalCost(p.sites);
  return p;
}

}  // namespace vfpga
