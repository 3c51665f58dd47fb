#include "fabric/config_map.hpp"

#include <cassert>

namespace vfpga {

ConfigMap::ConfigMap(const RoutingGraph& rrg, std::uint32_t frameBits)
    : geom_(rrg.geometry()), frameBits_(frameBits) {
  assert(frameBits_ > 0);
  const FabricGeometry& g = geom_;
  const std::uint32_t clbBits =
      static_cast<std::uint32_t>(g.lutBits()) + 2;  // LUT + ffEnable + enable

  clbBase_.assign(g.clbCount(), 0);
  padSlotBase_.assign(g.padSlotCount(), 0);
  edgeBit_.assign(rrg.edgeCount(), 0);
  colFrameStart_.assign(g.cols + 1u, 0);

  // Pre-bucket pads and edges by owner column.
  std::vector<std::vector<std::size_t>> padsOfCol(g.cols);
  for (std::size_t pad = 0; pad < g.padCount(); ++pad) {
    padsOfCol[padColumn(g, pad)].push_back(pad);
  }
  // Edges by a counting sort on their owner column, ids ascending within
  // a column: runStart_[c] is where column c's run begins in runEdges_.
  runStart_.assign(g.cols + 1u, 0);
  std::vector<std::uint16_t> owner(rrg.edgeCount());
  for (RREdgeId e = 0; e < rrg.edgeCount(); ++e) {
    owner[e] = rrg.ownerColumn(rrg.edge(e).to);
    ++runStart_[owner[e] + 1u];
  }
  for (std::uint16_t c = 0; c < g.cols; ++c) runStart_[c + 1u] += runStart_[c];
  runEdges_.resize(rrg.edgeCount());
  std::vector<std::uint32_t> fill(runStart_.begin(), runStart_.end() - 1);
  for (RREdgeId e = 0; e < rrg.edgeCount(); ++e) {
    runEdges_[fill[owner[e]]++] = e;
  }
  runBit_.assign(g.cols, 0);

  std::uint32_t bit = 0;
  for (std::uint16_t c = 0; c < g.cols; ++c) {
    colFrameStart_[c] = bit / frameBits_;
    const std::uint32_t colStart = bit;
    for (int y = 0; y < g.rows; ++y) {
      clbBase_[static_cast<std::size_t>(y) * g.cols + c] = bit;
      bit += clbBits;
    }
    for (std::size_t pad : padsOfCol[c]) {
      for (int s = 0; s < g.slotsPerPad; ++s) {
        padSlotBase_[pad * g.slotsPerPad + static_cast<std::size_t>(s)] = bit;
        bit += 2;
      }
    }
    runBit_[c] = bit;
    for (std::uint32_t k = runStart_[c]; k < runStart_[c + 1u]; ++k) {
      edgeBit_[runEdges_[k]] = bit++;
    }
    usedBits_ += bit - colStart;
    // Pad the column out to a frame boundary.
    bit = (bit + frameBits_ - 1) / frameBits_ * frameBits_;
  }
  colFrameStart_[g.cols] = bit / frameBits_;
  frameCount_ = bit / frameBits_;
}

std::uint32_t ConfigMap::clbBitBase(int x, int y) const {
  assert(geom_.validClb(x, y));
  return clbBase_[static_cast<std::size_t>(y) * geom_.cols +
                  static_cast<std::size_t>(x)];
}

std::uint32_t ConfigMap::clbFfEnableBit(int x, int y) const {
  return clbBitBase(x, y) + static_cast<std::uint32_t>(geom_.lutBits());
}

std::uint32_t ConfigMap::clbEnableBit(int x, int y) const {
  return clbBitBase(x, y) + static_cast<std::uint32_t>(geom_.lutBits()) + 1;
}

std::uint32_t ConfigMap::padSlotBitBase(std::size_t slotIndex) const {
  return padSlotBase_.at(slotIndex);
}

ConfigMap::EdgeRun ConfigMap::edgeRun(std::uint16_t col) const {
  assert(col < geom_.cols);
  const std::span<const RREdgeId> all(runEdges_);
  return {runBit_[col],
          all.subspan(runStart_[col], runStart_[col + 1u] - runStart_[col])};
}

std::uint16_t ConfigMap::columnOfFrame(std::uint32_t frame) const {
  assert(frame < frameCount_);
  // Columns are few; linear scan is simpler than storing a reverse map.
  for (std::uint16_t c = 0; c < geom_.cols; ++c) {
    if (frame < colFrameStart_[c + 1u]) return c;
  }
  return static_cast<std::uint16_t>(geom_.cols - 1);
}

std::pair<std::uint32_t, std::uint32_t> ConfigMap::framesOfColumn(
    std::uint16_t col) const {
  assert(col < geom_.cols);
  return {colFrameStart_[col], colFrameStart_[col + 1u]};
}

std::pair<std::uint32_t, std::uint32_t> ConfigMap::framesOfColumns(
    std::uint16_t c0, std::uint16_t c1) const {
  assert(c0 <= c1 && c1 < geom_.cols);
  return {colFrameStart_[c0], colFrameStart_[c1 + 1u]};
}

}  // namespace vfpga
