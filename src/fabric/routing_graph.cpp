#include "fabric/routing_graph.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace vfpga {

const char* rrKindName(RRKind k) {
  switch (k) {
    case RRKind::kClbOut: return "clb_out";
    case RRKind::kClbIn: return "clb_in";
    case RRKind::kWireH: return "wire_h";
    case RRKind::kWireV: return "wire_v";
    case RRKind::kPadSlot: return "pad_slot";
  }
  return "unknown";
}

RoutingGraph::RoutingGraph(const FabricGeometry& g) : geom_(g) {
  if (g.rows == 0 || g.cols == 0 || g.lutInputs == 0 ||
      g.wiresPerChannel == 0 || g.slotsPerPad == 0) {
    throw std::invalid_argument("degenerate fabric geometry");
  }
  buildNodes();
  buildEdges();
  buildCsr();
}

void RoutingGraph::buildNodes() {
  const int rows = geom_.rows, cols = geom_.cols;
  const int K = geom_.lutInputs, W = geom_.wiresPerChannel;

  const std::size_t clbs = geom_.clbCount();
  nodes_.reserve(clbs * (1 + static_cast<std::size_t>(K)) +
                 static_cast<std::size_t>(W) *
                     ((rows + 1u) * static_cast<std::size_t>(cols) +
                      (cols + 1u) * static_cast<std::size_t>(rows)) +
                 geom_.padSlotCount());

  clbOutBase_ = 0;
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      nodes_.push_back(RRNode{RRKind::kClbOut, static_cast<std::int16_t>(x),
                              static_cast<std::int16_t>(y), 0, 0});
    }
  }
  clbInBase_ = static_cast<RRNodeId>(nodes_.size());
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      for (int p = 0; p < K; ++p) {
        nodes_.push_back(RRNode{RRKind::kClbIn, static_cast<std::int16_t>(x),
                                static_cast<std::int16_t>(y),
                                static_cast<std::uint16_t>(p), 0});
      }
    }
  }
  wireHBase_ = static_cast<RRNodeId>(nodes_.size());
  for (int y = 0; y <= rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      for (int w = 0; w < W; ++w) {
        nodes_.push_back(RRNode{RRKind::kWireH, static_cast<std::int16_t>(x),
                                static_cast<std::int16_t>(y),
                                static_cast<std::uint16_t>(w), 0});
      }
    }
  }
  wireVBase_ = static_cast<RRNodeId>(nodes_.size());
  for (int x = 0; x <= cols; ++x) {
    for (int y = 0; y < rows; ++y) {
      for (int w = 0; w < W; ++w) {
        nodes_.push_back(RRNode{RRKind::kWireV, static_cast<std::int16_t>(x),
                                static_cast<std::int16_t>(y),
                                static_cast<std::uint16_t>(w), 0});
      }
    }
  }
  padBase_ = static_cast<RRNodeId>(nodes_.size());
  for (std::size_t pad = 0; pad < geom_.padCount(); ++pad) {
    const PadLocation loc = padLocation(geom_, pad);
    for (int s = 0; s < geom_.slotsPerPad; ++s) {
      nodes_.push_back(RRNode{RRKind::kPadSlot,
                              static_cast<std::int16_t>(loc.offset),
                              0, static_cast<std::uint16_t>(s),
                              static_cast<std::uint16_t>(pad)});
    }
  }
}

RRNodeId RoutingGraph::clbOut(int x, int y) const {
  assert(geom_.validClb(x, y));
  return clbOutBase_ + static_cast<RRNodeId>(y * geom_.cols + x);
}

RRNodeId RoutingGraph::clbIn(int x, int y, int pin) const {
  assert(geom_.validClb(x, y));
  assert(pin >= 0 && pin < geom_.lutInputs);
  return clbInBase_ + static_cast<RRNodeId>((y * geom_.cols + x) *
                                            geom_.lutInputs + pin);
}

RRNodeId RoutingGraph::wireH(int x, int y, int w) const {
  assert(x >= 0 && x < geom_.cols && y >= 0 && y <= geom_.rows);
  assert(w >= 0 && w < geom_.wiresPerChannel);
  return wireHBase_ + static_cast<RRNodeId>(
                          (y * geom_.cols + x) * geom_.wiresPerChannel + w);
}

RRNodeId RoutingGraph::wireV(int x, int y, int w) const {
  assert(x >= 0 && x <= geom_.cols && y >= 0 && y < geom_.rows);
  assert(w >= 0 && w < geom_.wiresPerChannel);
  return wireVBase_ + static_cast<RRNodeId>(
                          (x * geom_.rows + y) * geom_.wiresPerChannel + w);
}

RRNodeId RoutingGraph::padSlot(std::size_t pad, int slot) const {
  assert(pad < geom_.padCount());
  assert(slot >= 0 && slot < geom_.slotsPerPad);
  return padBase_ + static_cast<RRNodeId>(pad * geom_.slotsPerPad +
                                          static_cast<std::size_t>(slot));
}

void RoutingGraph::addEdge(RRNodeId from, RRNodeId to) {
  edges_.push_back(RREdge{from, to});
}

void RoutingGraph::buildEdges() {
  const int rows = geom_.rows, cols = geom_.cols;
  const int K = geom_.lutInputs, W = geom_.wiresPerChannel;

  // Reserve the exact count: per CLB 4W output and KW input switches, per
  // switchbox junction of n incident segments n(n - 1)W, per pad slot 2W.
  std::size_t junctionPairs = 0;
  for (int jy = 0; jy <= rows; ++jy) {
    for (int jx = 0; jx <= cols; ++jx) {
      const int n = (jx > 0) + (jx < cols) + (jy > 0) + (jy < rows);
      junctionPairs += static_cast<std::size_t>(n * (n - 1));
    }
  }
  edges_.reserve(static_cast<std::size_t>(W) *
                 (geom_.clbCount() * (4 + static_cast<std::size_t>(K)) +
                  junctionPairs + 2 * geom_.padSlotCount()));

  // 1. CLB outputs drive every wire of all four adjacent channel segments.
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      const RRNodeId out = clbOut(x, y);
      for (int w = 0; w < W; ++w) {
        addEdge(out, wireH(x, y, w));      // south channel
        addEdge(out, wireH(x, y + 1, w));  // north channel
        addEdge(out, wireV(x, y, w));      // west channel
        addEdge(out, wireV(x + 1, y, w));  // east channel
      }
    }
  }

  // 2. CLB input pin p listens to the full channel on side p % 4
  //    (S, N, W, E) — a full connection box (Fc_in = W).
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      for (int p = 0; p < K; ++p) {
        const RRNodeId in = clbIn(x, y, p);
        for (int w = 0; w < W; ++w) {
          switch (p % 4) {
            case 0: addEdge(wireH(x, y, w), in); break;
            case 1: addEdge(wireH(x, y + 1, w), in); break;
            case 2: addEdge(wireV(x, y, w), in); break;
            case 3: addEdge(wireV(x + 1, y, w), in); break;
          }
        }
      }
    }
  }

  // 3. Disjoint switchboxes: at every junction, same-index wires of the
  //    incident segments are pairwise connectable (both directions).
  for (int jy = 0; jy <= rows; ++jy) {
    for (int jx = 0; jx <= cols; ++jx) {
      for (int w = 0; w < W; ++w) {
        RRNodeId ends[4];
        int n = 0;
        if (jx > 0) ends[n++] = wireH(jx - 1, jy, w);
        if (jx < cols) ends[n++] = wireH(jx, jy, w);
        if (jy > 0) ends[n++] = wireV(jx, jy - 1, w);
        if (jy < rows) ends[n++] = wireV(jx, jy, w);
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < n; ++j) {
            if (i != j) addEdge(ends[i], ends[j]);
          }
        }
      }
    }
  }

  // 4. Pad slots connect bidirectionally to the boundary channel at their
  //    position.
  for (std::size_t pad = 0; pad < geom_.padCount(); ++pad) {
    const PadLocation loc = padLocation(geom_, pad);
    for (int s = 0; s < geom_.slotsPerPad; ++s) {
      const RRNodeId slot = padSlot(pad, s);
      for (int w = 0; w < W; ++w) {
        RRNodeId wire = kNoRRNode;
        switch (loc.side) {
          case PadSide::kNorth: wire = wireH(loc.offset, rows, w); break;
          case PadSide::kSouth: wire = wireH(loc.offset, 0, w); break;
          case PadSide::kWest: wire = wireV(0, loc.offset, w); break;
          case PadSide::kEast: wire = wireV(cols, loc.offset, w); break;
        }
        addEdge(slot, wire);
        addEdge(wire, slot);
      }
    }
  }
}

void RoutingGraph::buildCsr() {
  const std::size_t n = nodes_.size();
  std::vector<std::uint32_t> outCount(n + 1, 0), inCount(n + 1, 0);
  for (const RREdge& e : edges_) {
    ++outCount[e.from + 1];
    ++inCount[e.to + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) {
    outCount[i] += outCount[i - 1];
    inCount[i] += inCount[i - 1];
  }
  outStart_ = outCount;
  inStart_ = inCount;
  outEdges_.resize(edges_.size());
  inEdges_.resize(edges_.size());
  std::vector<std::uint32_t> outFill = outStart_, inFill = inStart_;
  for (RREdgeId e = 0; e < edges_.size(); ++e) {
    outEdges_[outFill[edges_[e].from]++] = e;
    inEdges_[inFill[edges_[e].to]++] = e;
  }
}

std::span<const RREdgeId> RoutingGraph::edgesFrom(RRNodeId id) const {
  return {outEdges_.data() + outStart_[id],
          outEdges_.data() + outStart_[id + 1]};
}

std::span<const RREdgeId> RoutingGraph::edgesInto(RRNodeId id) const {
  return {inEdges_.data() + inStart_[id], inEdges_.data() + inStart_[id + 1]};
}

std::uint16_t RoutingGraph::ownerColumn(RRNodeId id) const {
  const RRNode& n = nodes_[id];
  switch (n.kind) {
    case RRKind::kClbOut:
    case RRKind::kClbIn:
    case RRKind::kWireH:
      return static_cast<std::uint16_t>(n.x);
    case RRKind::kWireV:
      return static_cast<std::uint16_t>(
          n.x < geom_.cols ? n.x : geom_.cols - 1);
    case RRKind::kPadSlot:
      return padColumn(geom_, n.pad);
  }
  return 0;
}

std::string RoutingGraph::describe(RRNodeId id) const {
  const RRNode& n = nodes_[id];
  std::ostringstream os;
  os << rrKindName(n.kind) << "(" << n.x << "," << n.y << ")#" << n.index;
  if (n.kind == RRKind::kPadSlot) os << " pad=" << n.pad;
  return os.str();
}

}  // namespace vfpga
