#include "compile/compiler.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "netlist/optimize.hpp"
#include "sim/rng.hpp"

namespace vfpga {

namespace {
std::uint64_t wallNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

std::uint64_t Compiler::recordPhase(const char* phase,
                                    const std::string& circuit,
                                    std::uint64_t startNs,
                                    obs::AttrList extra) const {
  if (tracer_ == nullptr && flowMetrics_ == nullptr) return 0;
  const std::uint64_t end = wallNs();
  const std::uint64_t dur = end > startNs ? end - startNs : 0;
  std::uint64_t spanId = 0;
  if (tracer_ != nullptr) {
    obs::AttrList attrs{{"circuit", circuit}};
    attrs.insert(attrs.end(), extra.begin(), extra.end());
    spanId = tracer_->complete(phase, "flow", startNs, dur, std::move(attrs));
  }
  if (flowMetrics_ != nullptr) {
    flowMetrics_
        ->stats(std::string("vfpga_flow_") + phase + "_ns", {},
                "Wall-clock time of this compile-flow phase")
        .observe(static_cast<double>(dur));
  }
  return spanId;
}

bool CompiledCircuit::needsInitialState() const {
  return std::any_of(initialState.begin(), initialState.end(),
                     [](bool b) { return b; });
}

std::uint32_t CompiledCircuit::padSlotOf(const std::string& portName) const {
  for (const PortBinding& p : ports) {
    if (p.name == portName) return p.padSlot;
  }
  throw std::out_of_range("no such port: " + portName);
}

Bitstream CompiledCircuit::fullBitstream() const {
  ConfigImage image(deviceFrames * bitstream.frameBits);
  applyBitstream(image, bitstream);
  return makeFullBitstream(image, bitstream.frameBits);
}

std::vector<std::uint32_t> Compiler::regionPadSlots(const Region& region,
                                                    bool relocatable) const {
  const FabricGeometry& g = dev_->geometry();
  std::vector<std::uint32_t> slots;
  // South pads of the region's columns first (input anchors are south),
  // then north pads; west/east pads only for non-relocatable circuits that
  // touch the device edge.
  for (std::uint16_t x = region.x0; x <= region.x1(); ++x) {
    const std::size_t pad = g.cols + x;  // south
    for (int s = 0; s < g.slotsPerPad; ++s) {
      slots.push_back(static_cast<std::uint32_t>(pad * g.slotsPerPad + s));
    }
  }
  for (std::uint16_t x = region.x0; x <= region.x1(); ++x) {
    const std::size_t pad = x;  // north
    for (int s = 0; s < g.slotsPerPad; ++s) {
      slots.push_back(static_cast<std::uint32_t>(pad * g.slotsPerPad + s));
    }
  }
  if (!relocatable) {
    if (region.x0 == 0) {
      for (std::uint16_t y = 0; y < g.rows; ++y) {
        const std::size_t pad = 2u * g.cols + y;  // west
        for (int s = 0; s < g.slotsPerPad; ++s) {
          slots.push_back(static_cast<std::uint32_t>(pad * g.slotsPerPad + s));
        }
      }
    }
    if (region.x1() == g.cols - 1) {
      for (std::uint16_t y = 0; y < g.rows; ++y) {
        const std::size_t pad = 2u * g.cols + g.rows + y;  // east
        for (int s = 0; s < g.slotsPerPad; ++s) {
          slots.push_back(static_cast<std::uint32_t>(pad * g.slotsPerPad + s));
        }
      }
    }
  }
  return slots;
}

std::size_t Compiler::ioCapacity(const Region& region,
                                 bool relocatable) const {
  return regionPadSlots(region, relocatable).size();
}

std::vector<char> Compiler::regionMask(const Region& region,
                                       bool relocatable) const {
  const RoutingGraph& rrg = dev_->rrg();
  std::vector<char> mask =
      columnRangeMask(rrg, region.x0, region.x1());
  if (relocatable) {
    // Exclude resources that do not exist identically in every same-width
    // strip: the device's rightmost vertical channel (owned by the last
    // column) and the west/east pads.
    const FabricGeometry& g = rrg.geometry();
    for (RRNodeId n = 0; n < rrg.nodeCount(); ++n) {
      if (!mask[n]) continue;
      const RRNode& node = rrg.node(n);
      if (node.kind == RRKind::kWireV && node.x == g.cols) mask[n] = 0;
      if (node.kind == RRKind::kPadSlot) {
        const PadSide side = padLocation(g, node.pad).side;
        if (side == PadSide::kWest || side == PadSide::kEast) mask[n] = 0;
      }
    }
  }
  return mask;
}

CompiledCircuit Compiler::compile(const Netlist& nl, const Region& region,
                                  const CompileOptions& options) {
  const std::uint64_t t0 = wallNs();
  MapOptions mo;
  mo.k = dev_->geometry().lutInputs;
  MappedNetlist mapped;
  if (options.optimize) {
    const std::uint64_t tSynth = wallNs();
    Netlist optimized = vfpga::optimize(nl);
    recordPhase("synth", nl.name(), tSynth);
    const std::uint64_t tMap = wallNs();
    mapped = mapToLuts(optimized, mo);
    recordPhase("techmap", nl.name(), tMap);
  } else {
    const std::uint64_t tMap = wallNs();
    mapped = mapToLuts(nl, mo);
    recordPhase("techmap", nl.name(), tMap);
  }
  CompiledCircuit c = compileMapped(mapped, nl.name(), region, options);
  c.compileSpanId = recordPhase("compile", nl.name(), t0,
                                {{"cells", std::to_string(c.cellCount())}});
  return c;
}

CompiledCircuit Compiler::compileMapped(const MappedNetlist& mapped,
                                        const std::string& name,
                                        const Region& region,
                                        const CompileOptions& options) {
  const FabricGeometry& g = dev_->geometry();
  const RoutingGraph& rrg = dev_->rrg();
  if (!region.fitsIn(g)) throw CompileError("region outside device");
  if (mapped.k > g.lutInputs) {
    throw CompileError("mapping K exceeds device LUT inputs");
  }
  if (mapped.cells.size() > region.clbCount()) {
    throw CompileError(name + ": " + std::to_string(mapped.cells.size()) +
                       " cells exceed region capacity " +
                       std::to_string(region.clbCount()));
  }
  const auto slots = regionPadSlots(region, options.relocatable);
  const std::size_t portCount = mapped.inputs.size() + mapped.outputs.size();
  if (portCount > slots.size()) {
    throw CompileError(name + ": " + std::to_string(portCount) +
                       " ports exceed region I/O capacity " +
                       std::to_string(slots.size()));
  }

  CompiledCircuit c;
  c.name = name;
  c.region = region;
  c.relocatable = options.relocatable;
  c.mapped = mapped;
  c.deviceFrames = dev_->configMap().frameCount();

  // Port binding: inputs from the front of the slot list (south pads),
  // outputs from the back (north pads).
  std::size_t lo = 0, hi = slots.size();
  for (const MappedPort& p : mapped.inputs) {
    c.ports.push_back(PortBinding{p.name, slots[lo++], true});
  }
  for (const MappedPort& p : mapped.outputs) {
    c.ports.push_back(PortBinding{p.name, slots[--hi], false});
  }

  // Route requests, one per live net.
  const auto sinks = mapped.computeSinks();
  const std::vector<char> mask = regionMask(region, options.relocatable);

  Rng rng(options.seed);
  CompileError lastError("place-and-route failed");
  for (int attempt = 0; attempt < std::max(1, options.attempts); ++attempt) {
    Rng attemptRng = rng.fork();
    const std::uint64_t tPlace = wallNs();
    c.placement = place(mapped, region, attemptRng, options.place);
    recordPhase("place", name, tPlace,
                {{"attempt", std::to_string(attempt + 1)}});

    std::vector<RouteRequest> requests;
    auto slotNode = [&](std::uint32_t denseSlot) {
      return rrg.padSlot(denseSlot / g.slotsPerPad,
                         static_cast<int>(denseSlot % g.slotsPerPad));
    };
    for (NetId n = 0; n < mapped.netCount(); ++n) {
      const auto& s = sinks[n];
      if (s.cellPins.empty() && s.outputPorts.empty()) continue;
      RouteRequest req;
      if (mapped.netIsInput(n)) {
        req.source = slotNode(c.ports[n].padSlot);
      } else {
        const auto site = c.placement.sites[mapped.cellOfNet(n)];
        req.source = rrg.clbOut(site.x, site.y);
      }
      for (auto [cell, pin] : s.cellPins) {
        const auto site = c.placement.sites[cell];
        req.sinks.push_back(rrg.clbIn(site.x, site.y, static_cast<int>(pin)));
      }
      for (std::uint32_t o : s.outputPorts) {
        req.sinks.push_back(
            slotNode(c.ports[mapped.inputs.size() + o].padSlot));
      }
      requests.push_back(std::move(req));
    }

    Router router(rrg, mask);
    const std::uint64_t tRoute = wallNs();
    auto routed = router.routeAll(requests, options.route);
    recordPhase("route", name, tRoute,
                {{"attempt", std::to_string(attempt + 1)},
                 {"ok", routed ? "true" : "false"}});
    if (!routed) {
      lastError = CompileError(name + ": routing failed (attempt " +
                               std::to_string(attempt + 1) + ")");
      continue;
    }
    c.routes = std::move(*routed);

    // FF bookkeeping: record each FF cell's site (mapped FF order) so
    // state save/restore works regardless of what else is on the device.
    c.ffSites.clear();
    c.initialState.clear();
    for (std::uint32_t cell = 0; cell < mapped.cells.size(); ++cell) {
      if (!mapped.cells[cell].hasFf) continue;
      c.ffSites.push_back(c.placement.sites[cell]);
      c.initialState.push_back(mapped.cells[cell].ffInit);
    }

    const std::uint64_t tPaint = wallNs();
    paintImage(c);
    // Direct compileMapped() callers get the bitstream span as the link
    // anchor; compile() overwrites with the enclosing `compile` span.
    c.compileSpanId = recordPhase("bitstream", name, tPaint);
    return c;
  }
  throw lastError;
}

void Compiler::paintImage(CompiledCircuit& c) const {
  const ConfigMap& map = dev_->configMap();
  const FabricGeometry& g = dev_->geometry();
  const auto [f0, f1] = map.framesOfColumns(c.region.x0, c.region.x1());
  // Painted into a scratch image of which only the region's frames are
  // kept: a bit outside them is an error, never a silent drop.
  ConfigImage image(map.totalBits());
  const auto set = [&](std::uint32_t bit) {
    const std::uint32_t f = map.frameOfBit(bit);
    if (f < f0 || f >= f1) {
      throw CompileError(c.name + ": bit " + std::to_string(bit) +
                         " outside the region's frames");
    }
    image.set(bit, true);
  };

  // CLB cells: enable, FF mode, K-expanded LUT table.
  for (std::uint32_t cell = 0; cell < c.mapped.cells.size(); ++cell) {
    const MappedCell& mc = c.mapped.cells[cell];
    const CellSite site = c.placement.sites[cell];
    set(map.clbEnableBit(site.x, site.y));
    if (mc.hasFf) set(map.clbFfEnableBit(site.x, site.y));
    const std::uint32_t usedBitsMask =
        (1u << mc.inputs.size()) - 1u;
    for (std::uint32_t j = 0; j < g.lutBits(); ++j) {
      const std::uint32_t folded = j & usedBitsMask;
      if ((mc.lutTable >> folded) & 1) {
        set(map.clbLutBit(site.x, site.y, j));
      }
    }
  }

  // Pad slots.
  for (const PortBinding& p : c.ports) {
    set(map.padSlotEnableBit(p.padSlot));
    if (!p.isInput) set(map.padSlotOutputBit(p.padSlot));
  }

  // Switches.
  for (const RoutedNet& net : c.routes.nets) {
    for (RREdgeId e : net.edges) set(map.edgeBit(e));
  }
  std::vector<std::uint32_t> frames(f1 - f0);
  std::iota(frames.begin(), frames.end(), f0);
  c.bitstream = makePartialBitstream(image, map.frameBits(), frames);
}

CompiledCircuit Compiler::relocate(const CompiledCircuit& c,
                                   std::uint16_t newX0) {
  if (!c.relocatable) throw CompileError("circuit is not relocatable");
  const FabricGeometry& g = dev_->geometry();
  if (newX0 + c.region.w > g.cols) {
    throw CompileError("relocation target outside device");
  }
  const int dx = static_cast<int>(newX0) - static_cast<int>(c.region.x0);
  if (dx == 0) return c;
  const RoutingGraph& rrg = dev_->rrg();

  CompiledCircuit r = c;
  r.region.x0 = newX0;
  r.placement.region = r.region;
  for (CellSite& s : r.placement.sites) {
    s.x = static_cast<std::uint16_t>(s.x + dx);
  }
  for (CellSite& s : r.ffSites) {
    s.x = static_cast<std::uint16_t>(s.x + dx);
  }

  auto translateNode = [&](RRNodeId n) -> RRNodeId {
    const RRNode& node = rrg.node(n);
    switch (node.kind) {
      case RRKind::kClbOut:
        return rrg.clbOut(node.x + dx, node.y);
      case RRKind::kClbIn:
        return rrg.clbIn(node.x + dx, node.y, node.index);
      case RRKind::kWireH:
        return rrg.wireH(node.x + dx, node.y, node.index);
      case RRKind::kWireV:
        return rrg.wireV(node.x + dx, node.y, node.index);
      case RRKind::kPadSlot: {
        const PadLocation loc = padLocation(g, node.pad);
        std::size_t pad;
        if (loc.side == PadSide::kNorth) {
          pad = static_cast<std::size_t>(loc.offset + dx);
        } else if (loc.side == PadSide::kSouth) {
          pad = g.cols + static_cast<std::size_t>(loc.offset + dx);
        } else {
          throw CompileError("relocatable circuit uses west/east pads");
        }
        return rrg.padSlot(pad, node.index);
      }
    }
    throw CompileError("unreachable node kind");
  };

  for (RoutedNet& net : r.routes.nets) {
    for (RRNodeId& n : net.nodes) n = translateNode(n);
    for (RREdgeId& e : net.edges) {
      const RRNodeId from = translateNode(rrg.edge(e).from);
      const RRNodeId to = translateNode(rrg.edge(e).to);
      RREdgeId found = static_cast<RREdgeId>(-1);
      for (RREdgeId cand : rrg.edgesFrom(from)) {
        if (rrg.edge(cand).to == to) {
          found = cand;
          break;
        }
      }
      if (found == static_cast<RREdgeId>(-1)) {
        throw CompileError("translated switch missing (fabric not uniform?)");
      }
      e = found;
    }
  }

  for (PortBinding& p : r.ports) {
    const std::size_t pad = p.padSlot / g.slotsPerPad;
    const std::size_t slot = p.padSlot % g.slotsPerPad;
    const PadLocation loc = padLocation(g, pad);
    std::size_t newPad;
    if (loc.side == PadSide::kNorth) {
      newPad = static_cast<std::size_t>(loc.offset + dx);
    } else if (loc.side == PadSide::kSouth) {
      newPad = g.cols + static_cast<std::size_t>(loc.offset + dx);
    } else {
      throw CompileError("relocatable circuit uses west/east pads");
    }
    p.padSlot = static_cast<std::uint32_t>(newPad * g.slotsPerPad + slot);
  }

  paintImage(r);
  return r;
}

}  // namespace vfpga
