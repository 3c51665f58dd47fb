#include "fabric/device.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>
#include <stdexcept>

namespace vfpga {

Device::Device(const FabricGeometry& g, DeviceTiming timing,
               std::uint32_t frameBits)
    : rrg_(g), map_(rrg_, frameBits), timing_(timing),
      image_(map_.totalBits()), padInput_(g.padSlotCount(), 0),
      padOutput_(g.padSlotCount(), 0), ffSite_(g.clbCount(), 0) {}

void Device::setConfigBit(std::uint32_t bit, bool v) {
  image_.set(bit, v);
  elabValid_ = false;
  ++configGen_;
}

void Device::applyBitstream(const Bitstream& bs) {
  if (!bs.crcOk()) throw std::runtime_error("bitstream CRC mismatch");
  vfpga::applyBitstream(image_, bs);
  elabValid_ = false;
  ++configGen_;
}

void Device::clearConfig() {
  image_.clear();
  elabValid_ = false;
  ++configGen_;
}

namespace {

/// Calls f(k) for each set bit first + k of the image with k < count, k
/// ascending, a 64-bit word at a time. Throws std::out_of_range, as
/// ConfigImage::get() does, when the range runs past the image.
template <typename F>
void forEachSetBit(const ConfigImage& image, std::uint32_t first,
                   std::size_t count, F&& f) {
  if (first + count > image.size()) {
    throw std::out_of_range("config bit beyond image");
  }
  const std::span<const std::uint8_t> bytes = image.raw();
  for (std::size_t k = 0; k < count;) {
    const std::size_t bit = first + k;
    const std::size_t at = bit / 8;
    const std::size_t n = std::min<std::size_t>(8, bytes.size() - at);
    std::uint64_t word = 0;
    for (std::size_t j = 0; j < n; ++j) {
      word |= std::uint64_t{bytes[at + j]} << (8 * j);
    }
    const std::size_t take = std::min<std::size_t>(64 - bit % 8, count - k);
    word >>= bit % 8;
    if (take < 64) word &= (std::uint64_t{1} << take) - 1;
    for (; word != 0; word &= word - 1) {
      f(k + static_cast<std::size_t>(std::countr_zero(word)));
    }
    k += take;
  }
}

SignalSource traceSource(const RoutingGraph& rrg, RRNodeId sink,
                         const std::vector<RREdgeId>& driverEdge,
                         std::vector<std::string>& faults) {
  SignalSource src;
  RRNodeId cur = sink;
  std::uint32_t hops = 0;
  // Bounded walk: a legal path can't exceed the node count.
  const std::size_t limit = rrg.nodeCount();
  for (std::size_t steps = 0; steps <= limit; ++steps) {
    const RREdgeId de = driverEdge[cur];
    if (de == static_cast<RREdgeId>(-1)) {
      if (cur == sink) return src;  // sink itself undriven
      const RRNode& n = rrg.node(cur);
      if (n.kind == RRKind::kClbOut) {
        src.kind = SignalSource::Kind::kCell;
        // Caller patches index from CLB coordinates to cell index.
        src.index = static_cast<std::uint32_t>(n.y) * rrg.geometry().cols +
                    static_cast<std::uint32_t>(n.x);
        src.hops = hops;
        return src;
      }
      if (n.kind == RRKind::kPadSlot) {
        src.kind = SignalSource::Kind::kPadSlot;
        src.index = static_cast<std::uint32_t>(n.pad) *
                        rrg.geometry().slotsPerPad + n.index;
        src.hops = hops;
        return src;
      }
      return src;  // wire chain ends at an undriven wire
    }
    const RRNodeId from = rrg.edge(de).from;
    const RRNode& fn = rrg.node(from);
    ++hops;
    if (fn.kind == RRKind::kClbOut) {
      src.kind = SignalSource::Kind::kCell;
      src.index = static_cast<std::uint32_t>(fn.y) * rrg.geometry().cols +
                  static_cast<std::uint32_t>(fn.x);
      src.hops = hops;
      return src;
    }
    if (fn.kind == RRKind::kPadSlot) {
      src.kind = SignalSource::Kind::kPadSlot;
      src.index = static_cast<std::uint32_t>(fn.pad) *
                      rrg.geometry().slotsPerPad + fn.index;
      src.hops = hops;
      return src;
    }
    cur = from;
  }
  faults.push_back("routing loop feeding " + rrg.describe(sink));
  return src;
}

}  // namespace

Elaboration elaborate(const RoutingGraph& rrg, const ConfigMap& map,
                      const ConfigImage& image) {
  const FabricGeometry& g = rrg.geometry();
  Elaboration elab;
  std::vector<std::string>& faults = elab.faults;

  // 1. Resolve the unique enabled driver of every routing node from the set
  //    bits of each column's switch-edge run. A node's incoming edges all
  //    lie in its owner column's run, in edge-id order (edgesInto's order),
  //    so the first set edge met is its driver and every later one a
  //    contention, reported in node order.
  std::vector<RREdgeId> driverEdge(rrg.nodeCount(),
                                   static_cast<RREdgeId>(-1));
  std::vector<RRNodeId> contended;  // once per extra driver
  for (std::uint16_t c = 0; c < g.cols; ++c) {
    const ConfigMap::EdgeRun run = map.edgeRun(c);
    forEachSetBit(image, run.firstBit, run.edges.size(), [&](std::size_t k) {
      const RREdgeId e = run.edges[k];
      const RRNodeId n = rrg.edge(e).to;
      if (driverEdge[n] != static_cast<RREdgeId>(-1)) {
        contended.push_back(n);
      } else {
        driverEdge[n] = e;
      }
    });
  }
  std::sort(contended.begin(), contended.end());
  for (const RRNodeId n : contended) {
    faults.push_back("driver contention at " + rrg.describe(n));
  }

  // 2. Pad slot roles.
  std::vector<std::int8_t> slotRole(g.padSlotCount(), -1);  // 0 in, 1 out
  for (std::size_t s = 0; s < g.padSlotCount(); ++s) {
    if (!image.get(map.padSlotEnableBit(s))) continue;
    slotRole[s] = image.get(map.padSlotOutputBit(s)) ? 1 : 0;
    if (slotRole[s] == 0) {
      elab.inputSlots.push_back(static_cast<std::uint32_t>(s));
    }
  }

  // 3. Enabled CLBs become cells; resolve their input sources.
  elab.cellOfClb.assign(g.clbCount(), -1);
  std::vector<std::int32_t>& cellOfClb = elab.cellOfClb;
  for (int y = 0; y < g.rows; ++y) {
    for (int x = 0; x < g.cols; ++x) {
      if (!image.get(map.clbEnableBit(x, y))) continue;
      Elaboration::Cell cell;
      cell.x = static_cast<std::uint16_t>(x);
      cell.y = static_cast<std::uint16_t>(y);
      for (std::uint32_t i = 0; i < g.lutBits(); ++i) {
        if (image.get(map.clbLutBit(x, y, i))) cell.lutTable |= 1u << i;
      }
      cell.useFf = image.get(map.clbFfEnableBit(x, y));
      if (cell.useFf) cell.ffIndex = elab.ffCount++;
      cell.inputs.resize(g.lutInputs);
      for (int p = 0; p < g.lutInputs; ++p) {
        cell.inputs[static_cast<std::size_t>(p)] =
            traceSource(rrg, rrg.clbIn(x, y, p), driverEdge, faults);
      }
      cellOfClb[static_cast<std::size_t>(y) * g.cols +
                static_cast<std::size_t>(x)] =
          static_cast<std::int32_t>(elab.cells.size());
      elab.cells.push_back(std::move(cell));
    }
  }

  // 4. Patch cell sources from CLB-flat indices to cell indices; a source
  //    pointing at a disabled CLB or a non-input pad slot is a fault.
  auto patchSource = [&](SignalSource& s, const char* what) {
    if (s.kind == SignalSource::Kind::kCell) {
      const std::int32_t ci = cellOfClb[s.index];
      if (ci < 0) {
        faults.push_back(std::string("signal from disabled CLB into ") + what);
        s.kind = SignalSource::Kind::kUndriven;
        return;
      }
      s.index = static_cast<std::uint32_t>(ci);
    } else if (s.kind == SignalSource::Kind::kPadSlot) {
      if (slotRole[s.index] != 0) {
        faults.push_back(std::string("signal from non-input pad slot into ") +
                         what);
        s.kind = SignalSource::Kind::kUndriven;
      }
    }
  };
  for (auto& cell : elab.cells) {
    for (auto& in : cell.inputs) patchSource(in, "CLB");
  }

  // 5. Output pad slots get their driver traced.
  for (std::size_t s = 0; s < g.padSlotCount(); ++s) {
    if (slotRole[s] != 1) continue;
    Elaboration::PadOut po;
    po.slot = static_cast<std::uint32_t>(s);
    po.source = traceSource(
        rrg, rrg.padSlot(s / g.slotsPerPad, static_cast<int>(s % g.slotsPerPad)),
        driverEdge, faults);
    patchSource(po.source, "output pad");
    if (po.source.kind == SignalSource::Kind::kUndriven) {
      faults.push_back("undriven output pad slot " + std::to_string(s));
    }
    elab.padOuts.push_back(po);
  }

  // 6. Levelize cells over combinational dependencies (an FF cell's output
  //    is registered, so it does not create a comb edge).
  const std::size_t nc = elab.cells.size();
  std::vector<std::uint32_t> indeg(nc, 0);
  std::vector<std::vector<std::uint32_t>> fanout(nc);
  for (std::uint32_t ci = 0; ci < nc; ++ci) {
    for (const SignalSource& in : elab.cells[ci].inputs) {
      if (in.kind == SignalSource::Kind::kCell &&
          !elab.cells[in.index].useFf) {
        ++indeg[ci];
        fanout[in.index].push_back(ci);
      }
    }
  }
  std::vector<std::uint32_t> ready;
  for (std::uint32_t ci = 0; ci < nc; ++ci) {
    if (indeg[ci] == 0) ready.push_back(ci);
  }
  while (!ready.empty()) {
    const std::uint32_t ci = ready.back();
    ready.pop_back();
    elab.evalOrder.push_back(ci);
    for (std::uint32_t out : fanout[ci]) {
      if (--indeg[out] == 0) ready.push_back(out);
    }
  }
  if (elab.evalOrder.size() != nc) {
    faults.push_back("combinational loop through routing");
  }
  return elab;
}

const Elaboration& Device::elaboration() {
  if (elabValid_) return elab_;
  elab_ = elaborate(rrg_, map_, image_);
  // Reset runtime value storage to match the new design. Registers keep
  // their values across reconfiguration of other frames (that is what makes
  // partial reconfiguration of one partition safe for its neighbours), so
  // only sites that are no longer FF cells are zeroed; loaders initialize
  // the FFs of the circuits they download.
  cellValue_.assign(elab_.cells.size(), 0);
  cellLutOut_.assign(elab_.cells.size(), 0);
  for (std::size_t site = 0; site < ffSite_.size(); ++site) {
    const std::int32_t ci = elab_.cellOfClb[site];
    if (ci < 0 || !elab_.cells[static_cast<std::size_t>(ci)].useFf) {
      ffSite_[site] = 0;
    }
  }
  std::fill(padOutput_.begin(), padOutput_.end(), 0);
  cycles_ = 0;
  elabValid_ = true;
  if (probe_ != nullptr) bindProbe();
  return elab_;
}

void Device::attachActivityProbe(ActivityProbe* probe) {
  probe_ = probe;
  if (probe_ != nullptr && elabValid_) bindProbe();
}

void Device::bindProbe() {
  probe_->beginElaboration(elab_.cells.size());
  for (std::size_t ci = 0; ci < elab_.cells.size(); ++ci) {
    const Elaboration::Cell& cell = elab_.cells[ci];
    std::uint32_t hops = 0;
    for (const SignalSource& in : cell.inputs) hops += in.hops;
    probe_->bindCell(ci, cell.x, cell.y, hops);
  }
}

bool Device::sourceValue(const SignalSource& s) const {
  switch (s.kind) {
    case SignalSource::Kind::kUndriven: return false;
    case SignalSource::Kind::kCell: return cellValue_[s.index] != 0;
    case SignalSource::Kind::kPadSlot: return padInput_[s.index] != 0;
  }
  return false;
}

void Device::setPadSlotInput(std::size_t slotIndex, bool v) {
  padInput_.at(slotIndex) = v ? 1 : 0;
}

bool Device::padSlotOutput(std::size_t slotIndex) {
  (void)elaboration();
  return padOutput_.at(slotIndex) != 0;
}

void Device::evaluate() {
  if (fast_ != nullptr) {
    // A probe or an active wire-fault model forces the interpretive walk
    // (the only path with per-site counters and fault semantics); a kernel
    // may also decline the current configuration itself.
    if (probe_ == nullptr && !fastInhibit_ && fast_->evaluate()) return;
    fast_->noteFallback();
  }
  const Elaboration& e = elaboration();
  // FF cell outputs come from state; comb cells are computed in order.
  for (std::uint32_t ci = 0; ci < e.cells.size(); ++ci) {
    if (e.cells[ci].useFf) cellValue_[ci] = ffSite_[siteOf(e.cells[ci])];
  }
  auto lutEval = [&](const Elaboration::Cell& cell) {
    std::uint32_t idx = 0;
    for (std::size_t p = 0; p < cell.inputs.size(); ++p) {
      if (sourceValue(cell.inputs[p])) idx |= 1u << p;
    }
    return static_cast<std::uint8_t>((cell.lutTable >> idx) & 1);
  };
  for (std::uint32_t ci : e.evalOrder) {
    const auto& cell = e.cells[ci];
    const std::uint8_t v = lutEval(cell);
    if (probe_ != nullptr && !cell.useFf) {
      probe_->noteEval(ci);
      if (v != cellValue_[ci]) probe_->noteToggle(ci);
    }
    cellLutOut_[ci] = v;
    if (!cell.useFf) cellValue_[ci] = v;
  }
  // FF cells' next-state values: all comb values are now final. The probe
  // counts one eval per enabled cell per evaluate(): comb cells above, FF
  // cells here (their output toggles are counted at the clock edge).
  for (std::uint32_t ci = 0; ci < e.cells.size(); ++ci) {
    if (!e.cells[ci].useFf) continue;
    cellLutOut_[ci] = lutEval(e.cells[ci]);
    if (probe_ != nullptr) probe_->noteEval(ci);
  }
  for (const auto& po : e.padOuts) {
    padOutput_[po.slot] = sourceValue(po.source) ? 1 : 0;
  }
}

void Device::tick() {
  if (fast_ != nullptr) {
    if (probe_ == nullptr && !fastInhibit_ && fast_->tick()) return;
    fast_->noteFallback();
  }
  const Elaboration& e = elaboration();
  for (std::uint32_t ci = 0; ci < e.cells.size(); ++ci) {
    if (!e.cells[ci].useFf) continue;
    std::uint8_t& ff = ffSite_[siteOf(e.cells[ci])];
    if (probe_ != nullptr && cellLutOut_[ci] != ff) probe_->noteToggle(ci);
    ff = cellLutOut_[ci];
  }
  ++cycles_;
  if (probe_ != nullptr) probe_->noteCycle();
}

std::vector<bool> Device::ffState() {
  const Elaboration& e = elaboration();
  std::vector<bool> state(e.ffCount);
  for (const auto& cell : e.cells) {
    if (cell.useFf) state[cell.ffIndex] = ffSite_[siteOf(cell)] != 0;
  }
  return state;
}

void Device::setFfState(const std::vector<bool>& state) {
  const Elaboration& e = elaboration();
  if (state.size() != e.ffCount) {
    throw std::invalid_argument("FF state size mismatch");
  }
  for (const auto& cell : e.cells) {
    if (cell.useFf) ffSite_[siteOf(cell)] = state[cell.ffIndex] ? 1 : 0;
  }
}

std::size_t Device::ffSiteAt(int x, int y) const {
  const FabricGeometry& g = rrg_.geometry();
  if (!g.validClb(x, y)) throw std::out_of_range("CLB coordinate");
  if (!image_.get(map_.clbEnableBit(x, y)) ||
      !image_.get(map_.clbFfEnableBit(x, y))) {
    throw std::logic_error("CLB is not an enabled FF cell");
  }
  return static_cast<std::size_t>(y) * g.cols + static_cast<std::size_t>(x);
}

bool Device::ffStateAt(int x, int y) const {
  return ffSite_[ffSiteAt(x, y)] != 0;
}

void Device::setFfStateAt(int x, int y, bool v) {
  ffSite_[ffSiteAt(x, y)] = v ? 1 : 0;
}

void Device::resetFfs() {
  (void)elaboration();
  std::fill(ffSite_.begin(), ffSite_.end(), 0);
}

SimDuration criticalPathDelay(const Elaboration& e,
                              const DeviceTiming& timing) {
  if (!e.ok()) return 0;
  // Arrival time at each cell's LUT *output*, combinationally. Sources that
  // are FFs or pads start the path.
  std::vector<SimDuration> arrival(e.cells.size(), 0);
  SimDuration crit = 0;
  auto sourceArrival = [&](const SignalSource& s) -> SimDuration {
    SimDuration t = 0;
    switch (s.kind) {
      case SignalSource::Kind::kUndriven: return 0;
      case SignalSource::Kind::kPadSlot: t = timing.padDelay; break;
      case SignalSource::Kind::kCell:
        t = e.cells[s.index].useFf ? 0 : arrival[s.index];
        break;
    }
    return t + s.hops * timing.switchDelay;
  };
  for (std::uint32_t ci : e.evalOrder) {
    SimDuration t = 0;
    for (const SignalSource& in : e.cells[ci].inputs) {
      t = std::max(t, sourceArrival(in));
    }
    arrival[ci] = t + timing.lutDelay;
    crit = std::max(crit, arrival[ci]);
  }
  // FF cells' D inputs and output pads terminate paths too.
  for (std::uint32_t ci = 0; ci < e.cells.size(); ++ci) {
    if (!e.cells[ci].useFf) continue;
    SimDuration t = 0;
    for (const SignalSource& in : e.cells[ci].inputs) {
      t = std::max(t, sourceArrival(in));
    }
    crit = std::max(crit, t + timing.lutDelay);
  }
  for (const auto& po : e.padOuts) {
    crit = std::max(crit, sourceArrival(po.source) + timing.padDelay);
  }
  return crit;
}

}  // namespace vfpga
