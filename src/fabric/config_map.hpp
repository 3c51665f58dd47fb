// Configuration bit map: assigns every programmable bit of the fabric a
// stable address in the configuration RAM, organized column-major into
// fixed-size frames (the atomic unit of partial reconfiguration, as in the
// partially-reconfigurable Xilinx families the paper singles out).
//
// Per device column c (left to right), the column's bits are laid out as:
//   1. CLB bits for CLBs (c, y), y ascending: 2^K LUT truth-table bits,
//      then the FF-enable bit, then the CLB-enable bit;
//   2. pad-slot bits for pads owned by column c: enable bit, direction bit
//      (1 = output);
//   3. one bit per switch edge owned by column c (by sink-node owner),
//      in edge-id order.
// Each column starts on a frame boundary; tail bits of the last frame of a
// column are padding. A full-height column strip therefore maps to a
// contiguous, independently writable frame range — which is exactly what
// makes column strips the natural partition unit in src/core.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fabric/routing_graph.hpp"

namespace vfpga {

class ConfigMap {
 public:
  ConfigMap(const RoutingGraph& rrg, std::uint32_t frameBits = 128);

  std::uint32_t frameBits() const { return frameBits_; }
  std::uint32_t frameCount() const { return frameCount_; }
  /// Total config RAM size including padding (frameCount * frameBits).
  std::uint32_t totalBits() const { return frameCount_ * frameBits_; }
  /// Bits that actually control hardware (excludes frame padding).
  std::uint32_t usedBits() const { return usedBits_; }

  // ---- bit addresses -------------------------------------------------------
  /// First bit of CLB (x, y): 2^K LUT bits, then FF-enable, then CLB-enable.
  std::uint32_t clbBitBase(int x, int y) const;
  std::uint32_t clbLutBit(int x, int y, std::uint32_t entry) const {
    return clbBitBase(x, y) + entry;
  }
  std::uint32_t clbFfEnableBit(int x, int y) const;
  std::uint32_t clbEnableBit(int x, int y) const;

  /// First bit of a pad slot (dense slot index): enable, then direction.
  std::uint32_t padSlotBitBase(std::size_t slotIndex) const;
  std::uint32_t padSlotEnableBit(std::size_t slotIndex) const {
    return padSlotBitBase(slotIndex);
  }
  std::uint32_t padSlotOutputBit(std::size_t slotIndex) const {
    return padSlotBitBase(slotIndex) + 1;
  }

  /// The config bit controlling a switch edge.
  std::uint32_t edgeBit(RREdgeId e) const { return edgeBit_[e]; }

  /// The switch edges a column owns, in edge-id order, and their bits:
  /// edges[k] is controlled by bit firstBit + k.
  struct EdgeRun {
    std::uint32_t firstBit = 0;
    std::span<const RREdgeId> edges;
  };
  EdgeRun edgeRun(std::uint16_t col) const;

  // ---- frame geometry ------------------------------------------------------
  std::uint32_t frameOfBit(std::uint32_t bit) const { return bit / frameBits_; }
  std::uint16_t columnOfFrame(std::uint32_t frame) const;
  /// Frame range [first, last) occupied by a device column.
  std::pair<std::uint32_t, std::uint32_t> framesOfColumn(
      std::uint16_t col) const;
  /// Frame range [first, last) of the contiguous columns [c0, c1].
  std::pair<std::uint32_t, std::uint32_t> framesOfColumns(std::uint16_t c0,
                                                          std::uint16_t c1) const;

 private:
  const FabricGeometry geom_;
  std::uint32_t frameBits_;
  std::uint32_t frameCount_ = 0;
  std::uint32_t usedBits_ = 0;
  std::vector<std::uint32_t> clbBase_;      // per CLB flat index
  std::vector<std::uint32_t> padSlotBase_;  // per dense slot index
  std::vector<std::uint32_t> edgeBit_;      // per edge id
  std::vector<RREdgeId> runEdges_;          // edge ids, column by column
  std::vector<std::uint32_t> runStart_;     // per column, plus sentinel
  std::vector<std::uint32_t> runBit_;       // per column: its first edge bit
  std::vector<std::uint32_t> colFrameStart_;  // per column, plus sentinel
};

}  // namespace vfpga
