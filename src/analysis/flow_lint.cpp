#include "analysis/flow_lint.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace vfpga::analysis {

namespace {

std::string describeCell(const MappedNetlist& m, std::size_t c) {
  std::string s = "cell " + std::to_string(c);
  if (!m.cells[c].name.empty()) s += " '" + m.cells[c].name + "'";
  return s;
}

Location cellLoc(const MappedNetlist& m, std::size_t c) {
  Location loc;
  loc.kind = Location::Kind::kCell;
  loc.index = static_cast<std::int64_t>(c);
  loc.detail = m.cells[c].name;
  return loc;
}

/// One combinational cycle among unregistered cells, reported with its
/// path. Returns true when found.
bool mappedCycle(const MappedNetlist& m, Report& rep) {
  const std::size_t n = m.cells.size();
  std::vector<std::uint8_t> color(n, 0);
  std::vector<std::uint32_t> parent(n, 0);
  for (std::size_t root = 0; root < n; ++root) {
    if (color[root] != 0) continue;
    std::vector<std::pair<std::uint32_t, std::size_t>> stack{
        {static_cast<std::uint32_t>(root), 0}};
    color[root] = 1;
    while (!stack.empty()) {
      auto& [c, next] = stack.back();
      const MappedCell& cell = m.cells[c];
      // Find the next combinational fanin cell: an unregistered driver.
      std::uint32_t dep = 0;
      bool found = false;
      while (next < cell.inputs.size()) {
        const NetId net = cell.inputs[next++];
        if (net >= m.netCount() || m.netIsInput(net)) continue;
        const auto d = static_cast<std::uint32_t>(m.cellOfNet(net));
        if (m.cells[d].hasFf) continue;  // registered output breaks the cycle
        dep = d;
        found = true;
        break;
      }
      if (!found) {
        color[c] = 2;
        stack.pop_back();
        continue;
      }
      if (color[dep] == 0) {
        color[dep] = 1;
        parent[dep] = c;
        stack.emplace_back(dep, 0);
      } else if (color[dep] == 1) {
        std::vector<std::uint32_t> cycle{dep};
        for (std::uint32_t walk = c; walk != dep; walk = parent[walk]) {
          cycle.push_back(walk);
        }
        Diagnostic& d = rep.add(
            "MP003",
            "combinational cycle of " + std::to_string(cycle.size()) +
                " unregistered cell(s)",
            cellLoc(m, dep));
        for (auto it = cycle.rbegin(); it != cycle.rend(); ++it) {
          d.notes.push_back(describeCell(m, *it));
        }
        d.notes.push_back("back to " + describeCell(m, dep));
        return true;
      }
    }
  }
  return false;
}

}  // namespace

void lintMapped(const MappedNetlist& m, Report& rep) {
  bool netsUsable = true;
  for (std::size_t c = 0; c < m.cells.size(); ++c) {
    const MappedCell& cell = m.cells[c];
    if (cell.inputs.size() > m.k) {
      rep.add("MP001",
              describeCell(m, c) + " has " +
                  std::to_string(cell.inputs.size()) + " inputs, K is " +
                  std::to_string(m.k),
              cellLoc(m, c));
    }
    for (std::size_t pin = 0; pin < cell.inputs.size(); ++pin) {
      if (cell.inputs[pin] >= m.netCount()) {
        rep.add("MP002",
                describeCell(m, c) + " pin " + std::to_string(pin) +
                    " references net " + std::to_string(cell.inputs[pin]) +
                    " of " + std::to_string(m.netCount()),
                cellLoc(m, c));
        netsUsable = false;
      }
    }
  }
  for (std::size_t o = 0; o < m.outputs.size(); ++o) {
    const NetId net = m.outputs[o].net;
    if (net == kNoNet || net >= m.netCount()) {
      Location loc;
      loc.kind = Location::Kind::kPort;
      loc.index = static_cast<std::int64_t>(o);
      loc.detail = m.outputs[o].name;
      rep.add("MP004",
              "output port '" + m.outputs[o].name + "' references net " +
                  std::to_string(net) + " of " + std::to_string(m.netCount()),
              loc);
    }
  }
  if (netsUsable) mappedCycle(m, rep);
}

void lintPlacement(const MappedNetlist& m, const Placement& p, Report& rep) {
  if (p.sites.size() != m.cells.size()) {
    Location loc;
    loc.kind = Location::Kind::kSite;
    rep.add("PL003",
            "placement assigns " + std::to_string(p.sites.size()) +
                " site(s) for " + std::to_string(m.cells.size()) + " cell(s)",
            loc);
    return;
  }
  std::map<std::pair<std::uint16_t, std::uint16_t>, std::size_t> occupied;
  for (std::size_t c = 0; c < p.sites.size(); ++c) {
    const CellSite s = p.sites[c];
    Location loc;
    loc.kind = Location::Kind::kSite;
    loc.index = static_cast<std::int64_t>(c);
    loc.x = s.x;
    loc.y = s.y;
    loc.detail = m.cells[c].name;
    if (!p.region.contains(s.x, s.y)) {
      rep.add("PL002",
              describeCell(m, c) + " placed at (" + std::to_string(s.x) +
                  ", " + std::to_string(s.y) + ") outside region [" +
                  std::to_string(p.region.x0) + ".." +
                  std::to_string(p.region.x1()) + "] x [" +
                  std::to_string(p.region.y0) + ".." +
                  std::to_string(p.region.y1()) + "]",
              loc);
    }
    auto [it, inserted] = occupied.emplace(std::make_pair(s.x, s.y), c);
    if (!inserted) {
      rep.add("PL001",
              describeCell(m, c) + " and " + describeCell(m, it->second) +
                  " both placed at (" + std::to_string(s.x) + ", " +
                  std::to_string(s.y) + ")",
              loc);
    }
  }
}

void lintRoutes(const RouteResult& routes, const RoutingGraph& rrg,
                const Region& region, Report& rep) {
  auto nodeLoc = [&](RRNodeId n) {
    Location loc;
    loc.kind = Location::Kind::kRRNode;
    loc.index = n;
    if (n < rrg.nodeCount()) {
      loc.x = rrg.node(n).x;
      loc.y = rrg.node(n).y;
      loc.detail = rrg.describe(n);
    }
    return loc;
  };

  // RT001: capacity-1 occupancy over all nets.
  std::unordered_map<RRNodeId, std::size_t> owner;
  for (std::size_t net = 0; net < routes.nets.size(); ++net) {
    for (RRNodeId n : routes.nets[net].nodes) {
      if (n >= rrg.nodeCount()) {
        rep.add("RT003",
                "net " + std::to_string(net) + " occupies nonexistent node " +
                    std::to_string(n),
                nodeLoc(n));
        continue;
      }
      auto [it, inserted] = owner.emplace(n, net);
      if (!inserted && it->second != net) {
        rep.add("RT001",
                "node used by net " + std::to_string(it->second) +
                    " and net " + std::to_string(net),
                nodeLoc(n));
      }
    }
  }

  for (std::size_t net = 0; net < routes.nets.size(); ++net) {
    const RoutedNet& rn = routes.nets[net];
    // RT002: every occupied node must be owned by a column of the strip.
    for (RRNodeId n : rn.nodes) {
      if (n >= rrg.nodeCount()) continue;
      const std::uint16_t col = rrg.ownerColumn(n);
      if (col < region.x0 || col > region.x1()) {
        rep.add("RT002",
                "net " + std::to_string(net) + " uses a node of column " +
                    std::to_string(col) + ", outside strip columns [" +
                    std::to_string(region.x0) + ".." +
                    std::to_string(region.x1()) + "]",
                nodeLoc(n));
      }
    }
    // RT003: every enabled switch edge connects two of the net's nodes.
    std::vector<RRNodeId> nodes = rn.nodes;
    std::sort(nodes.begin(), nodes.end());
    auto inTree = [&](RRNodeId n) {
      return std::binary_search(nodes.begin(), nodes.end(), n);
    };
    for (RREdgeId e : rn.edges) {
      if (e >= rrg.edgeCount()) {
        Location loc;
        loc.kind = Location::Kind::kRRNode;
        rep.add("RT003",
                "net " + std::to_string(net) +
                    " enables nonexistent switch edge " + std::to_string(e),
                loc);
        continue;
      }
      const RREdge& edge = rrg.edge(e);
      if (!inTree(edge.from) || !inTree(edge.to)) {
        rep.add("RT003",
                "net " + std::to_string(net) + " enables switch " +
                    std::to_string(e) +
                    " whose endpoints are not both in the net's route tree",
                nodeLoc(inTree(edge.from) ? edge.to : edge.from));
      }
    }
  }
}

void lintBitstream(const CompiledCircuit& c, const FabricGeometry& g,
                   const ConfigMap& cmap, Report& rep) {
  const auto [firstFrame, lastFrame] =
      cmap.framesOfColumns(c.region.x0, c.region.x1());
  auto frameLoc = [&](std::uint32_t f) {
    Location loc;
    loc.kind = Location::Kind::kFrame;
    loc.index = f;
    if (f < cmap.frameCount()) loc.x = cmap.columnOfFrame(f);
    return loc;
  };
  const Bitstream& bs = c.partialBitstream();
  for (const Frame& f : bs.frames) {
    if (f.id >= cmap.frameCount()) {
      rep.add("BS001",
              "frame " + std::to_string(f.id) + " of " +
                  std::to_string(cmap.frameCount()),
              frameLoc(f.id));
    } else if (f.id < firstFrame || f.id >= lastFrame) {
      rep.add("BS002",
              "frame " + std::to_string(f.id) +
                  " outside the circuit's frame range [" +
                  std::to_string(firstFrame) + ".." +
                  std::to_string(lastFrame) + ")",
              frameLoc(f.id));
    }
    if (bs.frameBits != cmap.frameBits()) {
      rep.add("BS003",
              "frame " + std::to_string(f.id) + " holds " +
                  std::to_string(bs.frameBits) +
                  " bit(s), configuration frames hold " +
                  std::to_string(cmap.frameBits()),
              frameLoc(f.id));
    } else if (f.payload.size() != payloadBytes(bs.frameBits)) {
      rep.add("BS003",
              "frame " + std::to_string(f.id) + " carries " +
                  std::to_string(f.payload.size()) + " payload byte(s), " +
                  std::to_string(bs.frameBits) + "-bit frames carry " +
                  std::to_string(payloadBytes(bs.frameBits)),
              frameLoc(f.id));
    }
  }

  for (std::size_t i = 0; i < c.ports.size(); ++i) {
    const PortBinding& p = c.ports[i];
    Location loc;
    loc.kind = Location::Kind::kPort;
    loc.index = static_cast<std::int64_t>(i);
    loc.detail = p.name;
    if (p.padSlot >= g.padSlotCount()) {
      rep.add("PT001",
              "port '" + p.name + "' bound to pad slot " +
                  std::to_string(p.padSlot) + " of " +
                  std::to_string(g.padSlotCount()),
              loc);
      continue;
    }
    if (c.relocatable) {
      const std::uint16_t col = padColumn(g, p.padSlot / g.slotsPerPad);
      if (col < c.region.x0 || col > c.region.x1()) {
        rep.add("PT002",
                "port '" + p.name + "' bound to a pad of column " +
                    std::to_string(col) + ", outside strip columns [" +
                    std::to_string(c.region.x0) + ".." +
                    std::to_string(c.region.x1()) + "]",
                loc);
      }
    }
  }
}

void lintCompiled(const CompiledCircuit& c, const RoutingGraph& rrg,
                  const ConfigMap& cmap, Report& rep) {
  lintMapped(c.mapped, rep);
  lintPlacement(c.mapped, c.placement, rep);
  lintRoutes(c.routes, rrg, c.region, rep);
  lintBitstream(c, rrg.geometry(), cmap, rep);
}

}  // namespace vfpga::analysis
