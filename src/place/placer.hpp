// Simulated-annealing placement of mapped cells onto the CLBs of a region.
//
// Cost is the half-perimeter wirelength (HPWL) over all nets, with port
// nets anchored to the region's north/south boundary (where the pads the
// compiler will bind them to live). Deterministic given the Rng seed.
#pragma once

#include <cstdint>
#include <vector>

#include "place/region.hpp"
#include "sim/rng.hpp"
#include "techmap/mapped_netlist.hpp"

namespace vfpga {

struct CellSite {
  std::uint16_t x = 0;
  std::uint16_t y = 0;
};

struct Placement {
  Region region;
  std::vector<CellSite> sites;  ///< one per mapped cell
  double finalCost = 0.0;
};

struct PlaceOptions {
  /// Moves per temperature step, as a multiple of the cell count.
  std::uint32_t movesPerCellPerTemp = 8;
  double initialAcceptance = 0.8;  ///< target initial acceptance rate
  double coolingFactor = 0.9;
  double stopTemperatureRatio = 0.005;  ///< stop at T < ratio * T0
};

/// Places `m` into `region`. Throws std::runtime_error when the region has
/// fewer CLBs than the netlist has cells.
Placement place(const MappedNetlist& m, const Region& region, Rng& rng,
                const PlaceOptions& options = {});

}  // namespace vfpga
