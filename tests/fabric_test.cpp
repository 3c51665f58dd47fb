#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "fabric/bitstream.hpp"
#include "fabric/config_map.hpp"
#include "fabric/config_port.hpp"
#include "fabric/device.hpp"
#include "fabric/device_family.hpp"
#include "fabric/routing_graph.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "sim/rng.hpp"
#include "util/hash.hpp"
#include "workloads/app_circuits.hpp"
#include "workloads/compile_suite.hpp"

namespace vfpga {
namespace {

FabricGeometry tinyGeom() { return FabricGeometry{4, 4, 4, 4, 2}; }

TEST(Geometry, Counts) {
  FabricGeometry g = tinyGeom();
  EXPECT_EQ(g.clbCount(), 16u);
  EXPECT_EQ(g.lutBits(), 16u);
  EXPECT_EQ(g.padCount(), 16u);       // 4 per side
  EXPECT_EQ(g.padSlotCount(), 32u);
}

TEST(Geometry, PadLocationsCoverAllSides) {
  FabricGeometry g = tinyGeom();
  std::set<std::pair<int, int>> seen;
  int north = 0, south = 0, west = 0, east = 0;
  for (std::size_t p = 0; p < g.padCount(); ++p) {
    PadLocation loc = padLocation(g, p);
    seen.insert({static_cast<int>(loc.side), loc.offset});
    switch (loc.side) {
      case PadSide::kNorth: ++north; break;
      case PadSide::kSouth: ++south; break;
      case PadSide::kWest: ++west; break;
      case PadSide::kEast: ++east; break;
    }
  }
  EXPECT_EQ(seen.size(), g.padCount());  // no duplicates
  EXPECT_EQ(north, 4);
  EXPECT_EQ(south, 4);
  EXPECT_EQ(west, 4);
  EXPECT_EQ(east, 4);
}

TEST(Geometry, PadColumnOwnership) {
  FabricGeometry g = tinyGeom();
  EXPECT_EQ(padColumn(g, 2), 2);                 // north pad of column 2
  EXPECT_EQ(padColumn(g, g.cols + 1u), 1);       // south pad of column 1
  EXPECT_EQ(padColumn(g, 2u * g.cols), 0);       // west pads -> column 0
  EXPECT_EQ(padColumn(g, 2u * g.cols + g.rows), g.cols - 1);  // east pads
}

TEST(RoutingGraph, NodeLookupsRoundTrip) {
  RoutingGraph rrg(tinyGeom());
  const FabricGeometry& g = rrg.geometry();
  for (int y = 0; y < g.rows; ++y) {
    for (int x = 0; x < g.cols; ++x) {
      const RRNode& out = rrg.node(rrg.clbOut(x, y));
      EXPECT_EQ(out.kind, RRKind::kClbOut);
      EXPECT_EQ(out.x, x);
      EXPECT_EQ(out.y, y);
      for (int p = 0; p < g.lutInputs; ++p) {
        const RRNode& in = rrg.node(rrg.clbIn(x, y, p));
        EXPECT_EQ(in.kind, RRKind::kClbIn);
        EXPECT_EQ(in.index, p);
      }
    }
  }
  const RRNode& w = rrg.node(rrg.wireH(1, 2, 3));
  EXPECT_EQ(w.kind, RRKind::kWireH);
  EXPECT_EQ(w.x, 1);
  EXPECT_EQ(w.y, 2);
  EXPECT_EQ(w.index, 3);
}

TEST(RoutingGraph, ClbOutHasNoIncomingAndClbInNoOutgoing) {
  RoutingGraph rrg(tinyGeom());
  EXPECT_TRUE(rrg.edgesInto(rrg.clbOut(1, 1)).empty());
  EXPECT_TRUE(rrg.edgesFrom(rrg.clbIn(1, 1, 0)).empty());
  EXPECT_FALSE(rrg.edgesFrom(rrg.clbOut(1, 1)).empty());
  EXPECT_FALSE(rrg.edgesInto(rrg.clbIn(1, 1, 0)).empty());
}

TEST(RoutingGraph, EdgeEndpointsConsistentWithCsr) {
  RoutingGraph rrg(tinyGeom());
  std::size_t total = 0;
  for (RRNodeId n = 0; n < rrg.nodeCount(); ++n) {
    for (RREdgeId e : rrg.edgesFrom(n)) {
      EXPECT_EQ(rrg.edge(e).from, n);
      ++total;
    }
  }
  EXPECT_EQ(total, rrg.edgeCount());
  total = 0;
  for (RRNodeId n = 0; n < rrg.nodeCount(); ++n) {
    for (RREdgeId e : rrg.edgesInto(n)) {
      EXPECT_EQ(rrg.edge(e).to, n);
      ++total;
    }
  }
  EXPECT_EQ(total, rrg.edgeCount());
}

TEST(RoutingGraph, SwitchboxConnectsSameIndexWires) {
  RoutingGraph rrg(tinyGeom());
  // Interior junction (1,1): H(0,1,w) <-> H(1,1,w) must be connected.
  const RRNodeId a = rrg.wireH(0, 1, 2);
  const RRNodeId b = rrg.wireH(1, 1, 2);
  bool found = false;
  for (RREdgeId e : rrg.edgesFrom(a)) {
    if (rrg.edge(e).to == b) found = true;
    // never to a different wire index
    const RRNode& to = rrg.node(rrg.edge(e).to);
    if (to.kind == RRKind::kWireH || to.kind == RRKind::kWireV) {
      EXPECT_EQ(to.index, 2);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RoutingGraph, OwnerColumnPartitionsNodes) {
  RoutingGraph rrg(tinyGeom());
  const FabricGeometry& g = rrg.geometry();
  for (RRNodeId n = 0; n < rrg.nodeCount(); ++n) {
    EXPECT_LT(rrg.ownerColumn(n), g.cols);
  }
  // Rightmost vertical channel belongs to the last column.
  EXPECT_EQ(rrg.ownerColumn(rrg.wireV(g.cols, 0, 0)), g.cols - 1);
  EXPECT_EQ(rrg.ownerColumn(rrg.wireV(0, 0, 0)), 0);
}

TEST(ConfigMap, BitsAreUniqueAndInRange) {
  RoutingGraph rrg(tinyGeom());
  ConfigMap map(rrg, 64);
  std::set<std::uint32_t> seen;
  const FabricGeometry& g = rrg.geometry();
  for (int y = 0; y < g.rows; ++y) {
    for (int x = 0; x < g.cols; ++x) {
      for (std::uint32_t i = 0; i < g.lutBits(); ++i) {
        EXPECT_TRUE(seen.insert(map.clbLutBit(x, y, i)).second);
      }
      EXPECT_TRUE(seen.insert(map.clbFfEnableBit(x, y)).second);
      EXPECT_TRUE(seen.insert(map.clbEnableBit(x, y)).second);
    }
  }
  for (std::size_t s = 0; s < g.padSlotCount(); ++s) {
    EXPECT_TRUE(seen.insert(map.padSlotEnableBit(s)).second);
    EXPECT_TRUE(seen.insert(map.padSlotOutputBit(s)).second);
  }
  for (RREdgeId e = 0; e < rrg.edgeCount(); ++e) {
    EXPECT_TRUE(seen.insert(map.edgeBit(e)).second);
  }
  EXPECT_EQ(seen.size(), map.usedBits());
  EXPECT_LE(map.usedBits(), map.totalBits());
  for (std::uint32_t b : seen) EXPECT_LT(b, map.totalBits());
}

// Each column's edge run lists the switches the column owns, ids ascending,
// edge k at bit firstBit + k; together the runs hold every edge once.
TEST(ConfigMap, EdgeRunsListColumnEdgesInBitOrder) {
  RoutingGraph rrg(tinyGeom());
  ConfigMap map(rrg, 64);
  std::size_t covered = 0;
  for (std::uint16_t c = 0; c < rrg.geometry().cols; ++c) {
    const ConfigMap::EdgeRun run = map.edgeRun(c);
    for (std::size_t k = 0; k < run.edges.size(); ++k) {
      const RREdgeId e = run.edges[k];
      EXPECT_EQ(rrg.ownerColumn(rrg.edge(e).to), c);
      EXPECT_EQ(map.edgeBit(e), run.firstBit + k);
      if (k > 0) EXPECT_LT(run.edges[k - 1], e);
    }
    covered += run.edges.size();
  }
  EXPECT_EQ(covered, rrg.edgeCount());
}

TEST(ConfigMap, ColumnsAlignToFrames) {
  RoutingGraph rrg(tinyGeom());
  ConfigMap map(rrg, 64);
  const FabricGeometry& g = rrg.geometry();
  std::uint32_t prevEnd = 0;
  for (std::uint16_t c = 0; c < g.cols; ++c) {
    auto [first, last] = map.framesOfColumn(c);
    EXPECT_EQ(first, prevEnd);
    EXPECT_GT(last, first);
    prevEnd = last;
    for (std::uint32_t f = first; f < last; ++f) {
      EXPECT_EQ(map.columnOfFrame(f), c);
    }
  }
  EXPECT_EQ(prevEnd, map.frameCount());
  auto [f0, f1] = map.framesOfColumns(1, 2);
  EXPECT_EQ(f0, map.framesOfColumn(1).first);
  EXPECT_EQ(f1, map.framesOfColumn(2).second);
}

TEST(ConfigMap, ColumnBitsStayInColumnFrames) {
  RoutingGraph rrg(tinyGeom());
  ConfigMap map(rrg, 64);
  const FabricGeometry& g = rrg.geometry();
  for (int y = 0; y < g.rows; ++y) {
    for (int x = 0; x < g.cols; ++x) {
      auto [first, last] = map.framesOfColumn(static_cast<std::uint16_t>(x));
      const std::uint32_t f = map.frameOfBit(map.clbEnableBit(x, y));
      EXPECT_GE(f, first);
      EXPECT_LT(f, last);
    }
  }
}

TEST(Bitstream, FullRoundTrip) {
  ConfigImage img(256);
  img.set(3, true);
  img.set(200, true);
  Bitstream bs = makeFullBitstream(img, 64);
  EXPECT_TRUE(bs.full);
  EXPECT_EQ(bs.frameCount(), 4u);
  EXPECT_TRUE(bs.crcOk());
  ConfigImage img2(256);
  applyBitstream(img2, bs);
  EXPECT_EQ(img, img2);
}

/// CRC-16/CCITT-FALSE fed one packed stream bit at a time, bit 0 of each
/// byte first: the reference the table CRC must equal.
std::uint16_t bitSerialCrc(std::uint16_t crc,
                           std::span<const std::uint8_t> packed,
                           std::size_t bits) {
  for (std::size_t i = 0; i < bits; ++i) {
    const unsigned b = (packed[i / 8] >> (i % 8)) & 1u;
    const bool fb = ((crc >> 15) & 1u) != b;
    crc = static_cast<std::uint16_t>(crc << 1);
    if (fb) crc ^= 0x1021;
  }
  return crc;
}

// The frame CRC by the sliced tables equals CRC-16/CCITT-FALSE fed one
// stream bit at a time: for frame sizes that do and do not fill whole
// bytes; for every stream length around the 16-byte step, the byte tail and
// the bit tail; for a call chain split at every byte; and from any register.
TEST(Bitstream, TableCrcEqualsBitSerialReference) {
  Rng rng(26);
  for (int stream = 0; stream < 20000; ++stream) {
    Bitstream bs;
    bs.frameBits = static_cast<std::uint32_t>(1 + rng.below(200));
    const std::uint64_t frames = 1 + rng.below(12);
    std::uint16_t ref = kCrc16Init;
    std::uint16_t chained = kCrc16Init;
    for (std::uint64_t f = 0; f < frames; ++f) {
      Frame frame{static_cast<std::uint32_t>(f),
                  std::vector<std::uint8_t>(payloadBytes(bs.frameBits))};
      for (std::uint32_t i = 0; i < bs.frameBits; ++i) {
        frame.setBit(i, rng.bernoulli(0.5));
      }
      ref = bitSerialCrc(ref, frame.payload, bs.frameBits);
      chained = crc16PackedBits(chained, frame.payload, bs.frameBits);
      bs.frames.push_back(std::move(frame));
    }
    bs.sealCrc();
    ASSERT_EQ(chained, ref) << "stream " << stream;
    ASSERT_EQ(bs.crc, ref) << "stream " << stream;
  }

  for (std::size_t bytes = 0; bytes <= 40; ++bytes) {
    for (std::size_t tail = 0; tail < 8; ++tail) {
      // The byte past the tail bits is random too: bits past `bits` must
      // not count.
      std::vector<std::uint8_t> packed(bytes + 1);
      for (std::uint8_t& b : packed) {
        b = static_cast<std::uint8_t>(rng.below(256));
      }
      const std::size_t bits = bytes * 8 + tail;
      const auto init = static_cast<std::uint16_t>(rng.below(0x10000));
      for (const std::uint16_t start : {kCrc16Init, init}) {
        const std::uint16_t want = bitSerialCrc(start, packed, bits);
        ASSERT_EQ(crc16PackedBits(start, packed, bits), want)
            << bytes << " bytes + " << tail << " bits from " << start;
        for (std::size_t split = 0; split <= bytes; ++split) {
          const std::uint16_t head =
              crc16PackedBits(start, packed, split * 8);
          ASSERT_EQ(crc16PackedBits(head, std::span(packed).subspan(split),
                                    bits - split * 8),
                    want)
              << bytes << " bytes + " << tail << " bits split at " << split;
        }
      }
    }
  }
}

TEST(Bitstream, PartialCoversOnlyRequestedFrames) {
  ConfigImage img(256);
  img.set(65, true);   // frame 1
  img.set(130, true);  // frame 2
  std::vector<std::uint32_t> want{1};
  Bitstream bs = makePartialBitstream(img, 64, want);
  EXPECT_FALSE(bs.full);
  EXPECT_EQ(bs.frameCount(), 1u);
  ConfigImage img2(256);
  applyBitstream(img2, bs);
  EXPECT_TRUE(img2.get(65));
  EXPECT_FALSE(img2.get(130));
}

TEST(Bitstream, CrcDetectsCorruption) {
  ConfigImage img(128);
  img.set(5, true);
  Bitstream bs = makeFullBitstream(img, 64);
  EXPECT_TRUE(bs.crcOk());
  bs.frames[0].setBit(5, false);  // corrupt in transit
  EXPECT_FALSE(bs.crcOk());
  Device dev(tinyGeom());
  EXPECT_THROW(dev.applyBitstream(bs), std::runtime_error);
}

// Hand-wires an inverter through the fabric without the CAD flow:
//   west pad slot -> V(0, y) wire -> CLB(0, y) pin 2 -> LUT(NOT) ->
//   CLB out -> V(1, y) wire -> ... there is no pad on V(1), so route back
//   via the south channel H(0, 0) to the south pad of column 0.
class HandWiredInverter : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = std::make_unique<Device>(tinyGeom(), DeviceTiming{}, 64u);
    const RoutingGraph& rrg = dev_->rrg();
    const ConfigMap& map = dev_->configMap();
    const FabricGeometry& g = dev_->geometry();

    // Pads: west pad of row 0 is pad index 2*cols + 0; south pad of
    // column 0 is pad index cols + 0.
    inSlotIdx_ = (2u * g.cols) * g.slotsPerPad;      // west row0, slot 0
    outSlotIdx_ = (g.cols + 0u) * g.slotsPerPad;     // south col0, slot 0
    const RRNodeId inSlot = rrg.padSlot(2u * g.cols, 0);
    const RRNodeId outSlot = rrg.padSlot(g.cols, 0);

    // Enable pads: input (direction 0) and output (direction 1).
    dev_->setConfigBit(map.padSlotEnableBit(inSlotIdx_), true);
    dev_->setConfigBit(map.padSlotEnableBit(outSlotIdx_), true);
    dev_->setConfigBit(map.padSlotOutputBit(outSlotIdx_), true);

    // CLB(0,0): enabled, LUT = NOT of pin 2 (pin 2 listens to the west
    // channel V(0, 0)). Truth table bit i = !(bit 2 of i).
    std::uint32_t lut = 0;
    for (std::uint32_t i = 0; i < 16; ++i) {
      if (((i >> 2) & 1) == 0) lut |= 1u << i;
    }
    for (std::uint32_t i = 0; i < 16; ++i) {
      dev_->setConfigBit(map.clbLutBit(0, 0, i), (lut >> i) & 1);
    }
    dev_->setConfigBit(map.clbEnableBit(0, 0), true);

    // Route: inSlot -> V(0,0,w0); V(0,0,w0) -> CLB(0,0) pin 2.
    enableEdge(inSlot, rrg.wireV(0, 0, 0));
    enableEdge(rrg.wireV(0, 0, 0), rrg.clbIn(0, 0, 2));
    // Route: CLB out -> H(0,0,w1) (south channel) -> outSlot.
    enableEdge(rrg.clbOut(0, 0), rrg.wireH(0, 0, 1));
    enableEdge(rrg.wireH(0, 0, 1), outSlot);
  }

  void enableEdge(RRNodeId from, RRNodeId to) {
    const RoutingGraph& rrg = dev_->rrg();
    for (RREdgeId e : rrg.edgesFrom(from)) {
      if (rrg.edge(e).to == to) {
        dev_->setConfigBit(dev_->configMap().edgeBit(e), true);
        return;
      }
    }
    FAIL() << "no such edge " << rrg.describe(from) << " -> "
           << rrg.describe(to);
  }

  std::unique_ptr<Device> dev_;
  std::size_t inSlotIdx_ = 0;
  std::size_t outSlotIdx_ = 0;
};

TEST_F(HandWiredInverter, ElaboratesCleanly) {
  const Elaboration& e = dev_->elaboration();
  ASSERT_TRUE(e.ok()) << e.faults.front();
  EXPECT_EQ(e.cells.size(), 1u);
  EXPECT_EQ(e.padOuts.size(), 1u);
  EXPECT_EQ(e.inputSlots.size(), 1u);
  EXPECT_EQ(e.ffCount, 0u);
}

TEST_F(HandWiredInverter, ComputesNot) {
  ASSERT_TRUE(dev_->configOk());
  dev_->setPadSlotInput(inSlotIdx_, false);
  dev_->evaluate();
  EXPECT_TRUE(dev_->padSlotOutput(outSlotIdx_));
  dev_->setPadSlotInput(inSlotIdx_, true);
  dev_->evaluate();
  EXPECT_FALSE(dev_->padSlotOutput(outSlotIdx_));
}

TEST_F(HandWiredInverter, CriticalPathIncludesHops) {
  ASSERT_TRUE(dev_->configOk());
  const DeviceTiming& t = dev_->timing();
  // Input: pad -> wire -> pin = 2 hops + padDelay, then LUT, then
  // out -> wire -> pad = 2 hops + padDelay.
  const SimDuration expect =
      t.padDelay + 2 * t.switchDelay + t.lutDelay + 2 * t.switchDelay +
      t.padDelay;
  EXPECT_EQ(dev_->criticalPathDelay(), expect);
  EXPECT_EQ(dev_->minClockPeriod(), expect + t.clockMargin);
}

TEST_F(HandWiredInverter, ContentionIsAFault) {
  const RoutingGraph& rrg = dev_->rrg();
  // Second driver onto the same wire the CLB output already drives, via the
  // switchbox at junction (1, 0). The second source wire is undriven, but
  // two enabled switches into one wire is contention regardless.
  enableEdge(rrg.wireV(1, 0, 1), rrg.wireH(0, 0, 1));
  EXPECT_FALSE(dev_->configOk());
}

TEST_F(HandWiredInverter, ClearConfigRemovesEverything) {
  dev_->clearConfig();
  const Elaboration& e = dev_->elaboration();
  EXPECT_TRUE(e.ok());
  EXPECT_TRUE(e.cells.empty());
  EXPECT_TRUE(e.padOuts.empty());
}

TEST_F(HandWiredInverter, UndrivenOutputPadIsAFault) {
  const ConfigMap& map = dev_->configMap();
  const std::size_t orphan = outSlotIdx_ + 1;  // next slot of the same pad
  dev_->setConfigBit(map.padSlotEnableBit(orphan), true);
  dev_->setConfigBit(map.padSlotOutputBit(orphan), true);
  EXPECT_FALSE(dev_->configOk());
}

// ---- the set-bit decode against the node-order decode ----------------------

/// elaborate() as it was before the set-bit decode: step 1 visits every
/// routing node and tests each incoming switch's bit. The reference the
/// set-bit decode must equal.
SignalSource referenceTrace(const RoutingGraph& rrg, RRNodeId sink,
                            const std::vector<RREdgeId>& driverEdge,
                            std::vector<std::string>& faults) {
  const FabricGeometry& g = rrg.geometry();
  auto origin = [&](const RRNode& n, std::uint32_t hops) {
    SignalSource src;
    if (n.kind == RRKind::kClbOut) {
      src.kind = SignalSource::Kind::kCell;
      src.index = static_cast<std::uint32_t>(n.y) * g.cols +
                  static_cast<std::uint32_t>(n.x);
    } else if (n.kind == RRKind::kPadSlot) {
      src.kind = SignalSource::Kind::kPadSlot;
      src.index = static_cast<std::uint32_t>(n.pad) * g.slotsPerPad + n.index;
    } else {
      return SignalSource{};
    }
    src.hops = hops;
    return src;
  };
  RRNodeId cur = sink;
  std::uint32_t hops = 0;
  for (std::size_t steps = 0; steps <= rrg.nodeCount(); ++steps) {
    const RREdgeId de = driverEdge[cur];
    if (de == static_cast<RREdgeId>(-1)) {
      if (cur == sink) return {};
      return origin(rrg.node(cur), hops);
    }
    const RRNodeId from = rrg.edge(de).from;
    ++hops;
    const RRKind kind = rrg.node(from).kind;
    if (kind == RRKind::kClbOut || kind == RRKind::kPadSlot) {
      return origin(rrg.node(from), hops);
    }
    cur = from;
  }
  faults.push_back("routing loop feeding " + rrg.describe(sink));
  return {};
}

Elaboration nodeOrderElaborate(const RoutingGraph& rrg, const ConfigMap& map,
                               const ConfigImage& image) {
  const FabricGeometry& g = rrg.geometry();
  Elaboration elab;
  std::vector<std::string>& faults = elab.faults;
  std::vector<RREdgeId> driverEdge(rrg.nodeCount(),
                                   static_cast<RREdgeId>(-1));
  for (RRNodeId n = 0; n < rrg.nodeCount(); ++n) {
    for (RREdgeId e : rrg.edgesInto(n)) {
      if (!image.get(map.edgeBit(e))) continue;
      if (driverEdge[n] != static_cast<RREdgeId>(-1)) {
        faults.push_back("driver contention at " + rrg.describe(n));
        continue;
      }
      driverEdge[n] = e;
    }
  }
  std::vector<std::int8_t> slotRole(g.padSlotCount(), -1);
  for (std::size_t s = 0; s < g.padSlotCount(); ++s) {
    if (!image.get(map.padSlotEnableBit(s))) continue;
    slotRole[s] = image.get(map.padSlotOutputBit(s)) ? 1 : 0;
    if (slotRole[s] == 0) elab.inputSlots.push_back(std::uint32_t(s));
  }
  elab.cellOfClb.assign(g.clbCount(), -1);
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
      for (int p = 0; p < g.lutInputs; ++p) {
        cell.inputs.push_back(
            referenceTrace(rrg, rrg.clbIn(x, y, p), driverEdge, faults));
      }
      elab.cellOfClb[std::size_t(y) * g.cols + std::size_t(x)] =
          static_cast<std::int32_t>(elab.cells.size());
      elab.cells.push_back(std::move(cell));
    }
  }
  auto patch = [&](SignalSource& s, const char* what) {
    if (s.kind == SignalSource::Kind::kCell) {
      const std::int32_t ci = elab.cellOfClb[s.index];
      if (ci < 0) {
        faults.push_back(std::string("signal from disabled CLB into ") + what);
        s.kind = SignalSource::Kind::kUndriven;
        return;
      }
      s.index = static_cast<std::uint32_t>(ci);
    } else if (s.kind == SignalSource::Kind::kPadSlot &&
               slotRole[s.index] != 0) {
      faults.push_back(std::string("signal from non-input pad slot into ") +
                       what);
      s.kind = SignalSource::Kind::kUndriven;
    }
  };
  for (auto& cell : elab.cells) {
    for (auto& in : cell.inputs) patch(in, "CLB");
  }
  for (std::size_t s = 0; s < g.padSlotCount(); ++s) {
    if (slotRole[s] != 1) continue;
    Elaboration::PadOut po;
    po.slot = static_cast<std::uint32_t>(s);
    po.source = referenceTrace(
        rrg, rrg.padSlot(s / g.slotsPerPad, int(s % g.slotsPerPad)),
        driverEdge, faults);
    patch(po.source, "output pad");
    if (po.source.kind == SignalSource::Kind::kUndriven) {
      faults.push_back("undriven output pad slot " + std::to_string(s));
    }
    elab.padOuts.push_back(po);
  }
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

/// The std::out_of_range message a decode throws, or "" when it returns.
template <typename Decode>
std::string outOfRangeOf(Decode&& decode) {
  try {
    decode();
  } catch (const std::out_of_range& e) {
    return e.what();
  }
  return "";
}

// The set-bit decode yields the node-order decode's whole Elaboration: on
// the registration images of the control and telecom suites, on random
// images, on images with several drivers per node (the contention faults in
// the same order), and on images shorter than the map.
TEST(Elaborate, SetBitDecodeEqualsNodeOrderReference) {
  const DeviceProfile profile = mediumPartialProfile();
  Device dev = profile.makeDevice();
  const RoutingGraph& rrg = dev.rrg();
  const ConfigMap& map = dev.configMap();
  auto expectSame = [&](const ConfigImage& image, const std::string& what) {
    const Elaboration want = nodeOrderElaborate(rrg, map, image);
    const Elaboration got = elaborate(rrg, map, image);
    EXPECT_EQ(got.faults, want.faults) << what;
    EXPECT_TRUE(got == want) << what;
  };

  std::vector<ConfigImage> registered;
  {
    Compiler compiler(dev);
    std::vector<workloads::AppCircuit> apps = workloads::controlSuite();
    for (workloads::AppCircuit& a : workloads::telecomSuite()) {
      apps.push_back(std::move(a));
    }
    for (const workloads::AppCircuit& a : apps) {
      const CompiledCircuit c = workloads::compileMinimal(compiler, a.netlist);
      ConfigImage image(map.totalBits());
      applyBitstream(image, c.partialBitstream());
      ASSERT_TRUE(elaborate(rrg, map, image).ok()) << a.name;
      expectSame(image, a.name);
      registered.push_back(std::move(image));
    }
  }
  EXPECT_GE(registered.size(), 11u);

  Rng rng(27);
  for (const double density : {0.0005, 0.005, 0.05, 0.5}) {
    ConfigImage image(map.totalBits());
    for (std::uint32_t b = 0; b < map.totalBits(); ++b) {
      if (rng.bernoulli(density)) image.set(b, true);
    }
    expectSame(image, "random, density " + std::to_string(density));
  }

  // Extra drivers onto random nodes of each circuit: every node gets two or
  // three of its incoming switches, so faults repeat per node.
  for (std::size_t i = 0; i < registered.size(); ++i) {
    ConfigImage image = registered[i];
    for (int n = 0; n < 40; ++n) {
      const auto node = static_cast<RRNodeId>(rng.below(rrg.nodeCount()));
      const std::span<const RREdgeId> in = rrg.edgesInto(node);
      if (in.size() < 2) continue;
      const std::uint64_t drivers = 2 + rng.below(2);
      for (std::uint64_t d = 0; d < drivers; ++d) {
        image.set(map.edgeBit(in[rng.below(in.size())]), true);
      }
    }
    const Elaboration got = elaborate(rrg, map, image);
    EXPECT_FALSE(got.ok());
    expectSame(image, "contended circuit " + std::to_string(i));
  }

  // Images one bit short of the last switch bit, and short only of the
  // padding past it.
  std::uint32_t lastUsed = 0;
  for (RREdgeId e = 0; e < rrg.edgeCount(); ++e) {
    lastUsed = std::max(lastUsed, map.edgeBit(e));
  }
  const ConfigImage cut(lastUsed);
  const std::string want =
      outOfRangeOf([&] { nodeOrderElaborate(rrg, map, cut); });
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(outOfRangeOf([&] { elaborate(rrg, map, cut); }), want);
  ASSERT_LT(lastUsed + 1, map.totalBits());
  ConfigImage padless(lastUsed + 1);
  for (std::uint32_t b = 0; b <= lastUsed; ++b) {
    padless.set(b, registered.front().get(b));
  }
  expectSame(padless, "image without the last frame's padding");
}

TEST(Device, FfStateRoundTripThroughRegisteredCell) {
  // CLB(0,0) as a DFF: LUT = identity of pin 2, FF enabled, fed from a
  // west pad, observed at a south pad.
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  const RoutingGraph& rrg = dev.rrg();
  const ConfigMap& map = dev.configMap();
  const FabricGeometry& g = dev.geometry();
  const std::size_t inSlot = (2u * g.cols) * g.slotsPerPad;
  const std::size_t outSlot = (g.cols + 0u) * g.slotsPerPad;
  dev.setConfigBit(map.padSlotEnableBit(inSlot), true);
  dev.setConfigBit(map.padSlotEnableBit(outSlot), true);
  dev.setConfigBit(map.padSlotOutputBit(outSlot), true);
  std::uint32_t lut = 0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    if ((i >> 2) & 1) lut |= 1u << i;
  }
  for (std::uint32_t i = 0; i < 16; ++i) {
    dev.setConfigBit(map.clbLutBit(0, 0, i), (lut >> i) & 1);
  }
  dev.setConfigBit(map.clbEnableBit(0, 0), true);
  dev.setConfigBit(map.clbFfEnableBit(0, 0), true);
  auto enable = [&](RRNodeId from, RRNodeId to) {
    for (RREdgeId e : rrg.edgesFrom(from)) {
      if (rrg.edge(e).to == to) {
        dev.setConfigBit(map.edgeBit(e), true);
        return;
      }
    }
    FAIL() << "edge missing";
  };
  enable(rrg.padSlot(2u * g.cols, 0), rrg.wireV(0, 0, 0));
  enable(rrg.wireV(0, 0, 0), rrg.clbIn(0, 0, 2));
  enable(rrg.clbOut(0, 0), rrg.wireH(0, 0, 1));
  enable(rrg.wireH(0, 0, 1), rrg.padSlot(g.cols, 0));
  ASSERT_TRUE(dev.configOk());
  ASSERT_EQ(dev.ffCount(), 1u);

  dev.setPadSlotInput(inSlot, true);
  dev.evaluate();
  EXPECT_FALSE(dev.padSlotOutput(outSlot));  // not clocked yet
  dev.tick();
  dev.evaluate();
  EXPECT_TRUE(dev.padSlotOutput(outSlot));
  EXPECT_EQ(dev.cyclesTicked(), 1u);

  // Save, perturb, restore.
  auto saved = dev.ffState();
  EXPECT_EQ(saved, std::vector<bool>{true});
  dev.setPadSlotInput(inSlot, false);
  dev.evaluate();
  dev.tick();
  dev.evaluate();
  EXPECT_FALSE(dev.padSlotOutput(outSlot));
  dev.setFfState(saved);
  dev.evaluate();
  EXPECT_TRUE(dev.padSlotOutput(outSlot));
  dev.resetFfs();
  dev.evaluate();
  EXPECT_FALSE(dev.padSlotOutput(outSlot));
}

// Registers live per CLB site, so reading or writing one never elaborates
// the device: after a partial download into another strip, register
// writes leave the cycle count alone (a rebuild resets it to 0), and the
// next rebuild keeps every register that is still an FF cell.
TEST(Device, FfStateAtNeverElaborates) {
  Device dev = mediumPartialProfile().makeDevice();
  Compiler compiler(dev);
  const CompiledCircuit a = compiler.compile(
      lib::makeCounter(6), Region::columns(dev.geometry(), 0, 6));
  const CompiledCircuit b = compiler.relocate(
      compiler.compile(lib::makeLfsr(8, 0b10111000),
                       Region::columns(dev.geometry(), 0, 6)),
      6);
  ASSERT_GT(a.ffCount(), 0u);
  ASSERT_GT(b.ffCount(), 0u);

  dev.applyBitstream(a.partialBitstream());
  LoadedCircuit la(dev, a);
  la.applyInitialState();
  la.setInput("en", true);
  la.setInput("clr", false);
  for (int i = 0; i < 3; ++i) {
    la.evaluate();
    la.tick();
  }
  ASSERT_EQ(dev.cyclesTicked(), 3u);

  dev.applyBitstream(b.partialBitstream());
  LoadedCircuit lb(dev, b);
  lb.applyInitialState();
  std::vector<bool> stateA = la.saveState();
  for (std::size_t i = 0; i < stateA.size(); ++i) {
    const CellSite& s = a.ffSites[i];
    stateA[i] = !dev.ffStateAt(s.x, s.y);
    dev.setFfStateAt(s.x, s.y, stateA[i]);
    EXPECT_EQ(dev.ffStateAt(s.x, s.y), stateA[i]);
  }
  std::vector<bool> stateB(b.ffCount());
  for (std::size_t i = 0; i < stateB.size(); ++i) stateB[i] = i % 3 == 0;
  lb.restoreState(stateB);
  EXPECT_EQ(dev.cyclesTicked(), 3u) << "a register access rebuilt the device";

  dev.evaluate();  // the rebuild happens here
  EXPECT_EQ(dev.cyclesTicked(), 0u);
  EXPECT_EQ(la.saveState(), stateA);
  EXPECT_EQ(lb.saveState(), stateB);

  // Turning an FF off and on again between rebuilds keeps its value; a
  // rebuild while it is not an FF cell zeroes it.
  const ConfigMap& map = dev.configMap();
  const CellSite s = a.ffSites.front();
  dev.setFfStateAt(s.x, s.y, true);
  dev.setConfigBit(map.clbFfEnableBit(s.x, s.y), false);
  EXPECT_THROW((void)dev.ffStateAt(s.x, s.y), std::logic_error);
  dev.setConfigBit(map.clbFfEnableBit(s.x, s.y), true);
  EXPECT_TRUE(dev.ffStateAt(s.x, s.y));
  dev.setConfigBit(map.clbFfEnableBit(s.x, s.y), false);
  (void)dev.elaboration();
  dev.setConfigBit(map.clbFfEnableBit(s.x, s.y), true);
  EXPECT_FALSE(dev.ffStateAt(s.x, s.y));

  // A combinational cell and a disabled CLB are not FF cells; a bad
  // coordinate is out of range.
  const Elaboration& e = dev.elaboration();
  const auto comb = std::find_if(e.cells.begin(), e.cells.end(),
                                 [](const auto& c) { return !c.useFf; });
  ASSERT_NE(comb, e.cells.end());
  EXPECT_THROW((void)dev.ffStateAt(comb->x, comb->y), std::logic_error);
  EXPECT_THROW(dev.setFfStateAt(comb->x, comb->y, true), std::logic_error);
  dev.setConfigBit(map.clbEnableBit(s.x, s.y), false);
  EXPECT_THROW((void)dev.ffStateAt(s.x, s.y), std::logic_error);
  const FabricGeometry& g = dev.geometry();
  EXPECT_THROW((void)dev.ffStateAt(-1, 0), std::out_of_range);
  EXPECT_THROW(dev.setFfStateAt(g.cols, 0, true), std::out_of_range);
  EXPECT_THROW((void)dev.ffStateAt(0, g.rows), std::out_of_range);
}

TEST(ConfigPort, CostsMatchSpecArithmetic) {
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPortSpec spec;
  spec.bitPeriod = nanos(10);
  spec.frameOverhead = nanos(100);
  spec.fullOverhead = nanos(1000);
  ConfigPort port(dev, spec);
  Bitstream full = makeFullBitstream(dev.image(), 64);
  EXPECT_EQ(port.downloadCost(full),
            nanos(1000) + full.bitCount() * nanos(10));
  EXPECT_EQ(port.fullDownloadCost(), port.downloadCost(full));
  std::vector<std::uint32_t> one{0};
  Bitstream part = makePartialBitstream(dev.image(), 64, one);
  EXPECT_EQ(port.downloadCost(part), nanos(100) + 64 * nanos(10));
  EXPECT_EQ(port.stateReadCost(10),
            spec.stateOverhead + 10 * spec.stateBitPeriod);
}

TEST(ConfigPort, SerialFullPortRejectsPartial) {
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPortSpec spec;
  spec.partialReconfig = false;
  ConfigPort port(dev, spec);
  std::vector<std::uint32_t> one{0};
  Bitstream part = makePartialBitstream(dev.image(), 64, one);
  EXPECT_THROW(port.download(part), std::logic_error);
  Bitstream full = makeFullBitstream(dev.image(), 64);
  EXPECT_GT(port.download(full), 0u);
  EXPECT_EQ(port.stats().fullDownloads, 1u);
}

TEST(ConfigPort, StatsAccumulate) {
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPort port(dev, ConfigPortSpec{});
  Bitstream full = makeFullBitstream(dev.image(), 64);
  port.download(full);
  std::vector<std::uint32_t> one{1};
  port.download(makePartialBitstream(dev.image(), 64, one));
  const SimDuration moved =
      port.chargeStateRead(8) + port.chargeStateWrite(8);
  EXPECT_EQ(moved, port.stateReadCost(8) + port.stateWriteCost(8));
  EXPECT_EQ(port.stats().fullDownloads, 1u);
  EXPECT_EQ(port.stats().partialDownloads, 1u);
  EXPECT_EQ(port.stats().bitsWritten, full.bitCount() + 64u);
  EXPECT_EQ(port.stats().stateReads, 1u);
  EXPECT_EQ(port.stats().stateWrites, 1u);
  EXPECT_EQ(port.stats().stateBitsMoved, 16u);
  EXPECT_GT(port.stats().busyTime, moved);
}

TEST(ConfigPort, NoStateAccessThrows) {
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPortSpec spec;
  spec.stateAccess = false;
  ConfigPort port(dev, spec);
  EXPECT_THROW(port.chargeStateRead(8), std::logic_error);
  EXPECT_THROW(port.chargeStateWrite(8), std::logic_error);
  EXPECT_EQ(port.stats().busyTime, 0u);
}

// ---- ConfigPort::columnsBitstream -----------------------------------------
// Each case fills the RAM with random bits and draws a random partial
// source, then checks the result against a per-bit oracle: a bit takes the
// value of the source's frames applied to a blank image iff its frame
// belongs to a column in [c0, c1], and keeps the base image's value
// otherwise (the RAM on a partial port, the golden image on a serial one).

ConfigImage randomImage(std::uint32_t bits, Rng& rng) {
  ConfigImage img(bits);
  for (std::uint32_t b = 0; b < bits; ++b) img.set(b, rng.below(2) != 0);
  return img;
}

void fillRam(Device& dev, Rng& rng) {
  const ConfigImage img = randomImage(dev.configMap().totalBits(), rng);
  for (std::uint32_t b = 0; b < img.size(); ++b) dev.setConfigBit(b, img.get(b));
}

/// The frames of `image` named by `ids`, sealed.
Bitstream framesOf(const ConfigMap& map, const ConfigImage& image,
                   const std::vector<std::uint32_t>& ids) {
  return makePartialBitstream(image, map.frameBits(), ids);
}

/// Random payloads in a random subset of the device's frames.
Bitstream randomPartial(const ConfigMap& map, Rng& rng) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t f = 0; f < map.frameCount(); ++f) {
    if (rng.below(2) != 0) ids.push_back(f);
  }
  return framesOf(map, randomImage(map.totalBits(), rng), ids);
}

/// The source's frames applied to a blank image.
ConfigImage onBlank(const ConfigMap& map, const Bitstream& src) {
  ConfigImage out(map.totalBits());
  applyBitstream(out, src);
  return out;
}

ConfigImage mergedOracle(const ConfigMap& map, const ConfigImage& base,
                         const Bitstream& src, std::uint16_t c0,
                         std::uint16_t c1) {
  const ConfigImage want = onBlank(map, src);
  ConfigImage out = base;
  for (std::uint32_t b = 0; b < out.size(); ++b) {
    const std::uint16_t col = map.columnOfFrame(map.frameOfBit(b));
    if (col >= c0 && col <= c1) out.set(b, want.get(b));
  }
  return out;
}

std::vector<std::uint32_t> frameIds(const Bitstream& bs) {
  std::vector<std::uint32_t> ids;
  for (const Frame& f : bs.frames) ids.push_back(f.id);
  return ids;
}

std::vector<std::uint32_t> rangeIds(std::uint32_t f0, std::uint32_t f1) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t f = f0; f < f1; ++f) ids.push_back(f);
  return ids;
}

TEST(ConfigPort, ColumnsBitstreamCarriesEveryFrameOfTheRange) {
  Rng rng(11);
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPort port(dev, ConfigPortSpec{});
  const ConfigMap& map = dev.configMap();
  for (int trial = 0; trial < 8; ++trial) {
    fillRam(dev, rng);
    const Bitstream src = randomPartial(map, rng);
    const auto c0 = static_cast<std::uint16_t>(rng.below(4));
    const auto c1 = static_cast<std::uint16_t>(c0 + rng.below(4u - c0));
    const Bitstream bs = port.columnsBitstream(src, c0, c1, false);
    EXPECT_FALSE(bs.full);
    EXPECT_TRUE(bs.crcOk());
    const auto [f0, f1] = map.framesOfColumns(c0, c1);
    EXPECT_EQ(frameIds(bs), rangeIds(f0, f1));
    ConfigImage applied = dev.image();
    applyBitstream(applied, bs);
    EXPECT_EQ(applied, mergedOracle(map, dev.image(), src, c0, c1))
        << "trial " << trial;
  }
}

TEST(ConfigPort, ColumnsBitstreamChangedOnlyKeepsDifferingFrames) {
  Rng rng(12);
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPort port(dev, ConfigPortSpec{});
  const ConfigMap& map = dev.configMap();
  const std::uint32_t frames = map.frameCount();
  for (int trial = 0; trial < 8; ++trial) {
    fillRam(dev, rng);
    port.resyncExpected();  // the golden image holds what the RAM holds
    // The source carries every frame of the RAM, one bit flipped in a few
    // random frames.
    Bitstream src = framesOf(map, dev.image(), rangeIds(0, frames));
    std::set<std::uint32_t> touched;
    for (int k = 0; k < 4; ++k) {
      const auto f = static_cast<std::uint32_t>(rng.below(frames));
      src.frames[f].flipBit(
          static_cast<std::uint32_t>(rng.below(map.frameBits())));
      touched.insert(f);
    }
    src.sealCrc();
    const std::uint16_t c0 = 1;
    const std::uint16_t c1 = 2;
    const auto [f0, f1] = map.framesOfColumns(c0, c1);
    std::vector<std::uint32_t> want;
    for (std::uint32_t f : touched) {
      if (f >= f0 && f < f1) want.push_back(f);
    }
    const Bitstream bs = port.columnsBitstream(src, c0, c1, true);
    EXPECT_FALSE(bs.full);
    EXPECT_EQ(frameIds(bs), want) << "trial " << trial;
    ConfigImage applied = dev.image();
    applyBitstream(applied, bs);
    EXPECT_EQ(applied, mergedOracle(map, dev.image(), src, c0, c1))
        << "trial " << trial;
  }
}

TEST(ConfigPort, ColumnsBitstreamWritesFramesTheSourceOmitsAsBlank) {
  // The RAM is not blank in the range, the source carries only some of the
  // range's frames: every other frame of the range must be written blank,
  // with or without changedOnly.
  Rng rng(16);
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPort port(dev, ConfigPortSpec{});
  const ConfigMap& map = dev.configMap();
  for (int trial = 0; trial < 8; ++trial) {
    fillRam(dev, rng);
    port.resyncExpected();
    const auto [f0, f1] = map.framesOfColumns(1, 2);
    ASSERT_GE(f1 - f0, 2u);
    const auto kept = static_cast<std::uint32_t>(f0 + rng.below(f1 - f0));
    const Bitstream src = framesOf(map, dev.image(), {kept});
    for (const bool changedOnly : {false, true}) {
      const Bitstream bs = port.columnsBitstream(src, 1, 2, changedOnly);
      std::vector<std::uint32_t> want;
      for (std::uint32_t f = f0; f < f1; ++f) {
        ASSERT_NE(readFrame(dev.image(), 64, f).payload,
                  std::vector<std::uint8_t>(payloadBytes(64)));
        if (!changedOnly || f != kept) want.push_back(f);
      }
      EXPECT_EQ(frameIds(bs), want) << "trial " << trial;
      for (const Frame& f : bs.frames) {
        if (f.id != kept) {
          EXPECT_EQ(f.payload, std::vector<std::uint8_t>(payloadBytes(64)));
        }
      }
      ConfigImage applied = dev.image();
      applyBitstream(applied, bs);
      EXPECT_EQ(applied, mergedOracle(map, dev.image(), src, 1, 2))
          << "trial " << trial << " changedOnly " << changedOnly;
    }
  }
}

TEST(ConfigPort, ColumnsBitstreamEmptyWhenNothingDiffers) {
  Rng rng(13);
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPort port(dev, ConfigPortSpec{});
  const ConfigMap& map = dev.configMap();
  fillRam(dev, rng);
  port.resyncExpected();
  // Equal to the RAM inside columns [1, 2], random everywhere else.
  const auto [f0, f1] = map.framesOfColumns(1, 2);
  ConfigImage image = randomImage(map.totalBits(), rng);
  for (std::uint32_t b = f0 * 64; b < f1 * 64; ++b) {
    image.set(b, dev.image().get(b));
  }
  const Bitstream src = framesOf(map, image, rangeIds(0, map.frameCount()));
  EXPECT_TRUE(port.columnsBitstream(src, 1, 2, true).frames.empty());
  EXPECT_EQ(port.columnsBitstream(src, 1, 2, false).frameCount(), f1 - f0);
}

TEST(ConfigPort, ColumnsBitstreamChangedOnlyKeepsFramesTheGoldenImageLacks) {
  // A truncated download leaves the golden image holding its intent and
  // the RAM its old frames. Going back to the old (blank) configuration
  // must still write those frames, though they match the RAM: a skipped one
  // would keep the stale intent, and scrub() would restore it over the RAM.
  Rng rng(15);
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPort port(dev, ConfigPortSpec{});
  const ConfigMap& map = dev.configMap();
  const ConfigImage old = dev.image();
  const Bitstream intent = randomPartial(map, rng);
  port.setTamperHook([](const Bitstream&) { return DownloadTamper{0, {}}; });
  port.download(port.columnsBitstream(intent, 1, 2, false));
  port.setTamperHook({});
  ASSERT_EQ(dev.image(), old);
  const Bitstream back = port.columnsBitstream(Bitstream{}, 1, 2, true);
  const auto [f0, f1] = map.framesOfColumns(1, 2);
  const ConfigImage intended = onBlank(map, intent);
  std::vector<std::uint32_t> want;
  for (std::uint32_t f : differingFrames(old, intended, 64)) {
    if (f >= f0 && f < f1) want.push_back(f);
  }
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(frameIds(back), want);
  port.download(back);
  EXPECT_EQ(port.expectedImage(), old);
  EXPECT_EQ(port.scrub().repairedFrames, 0u);
  EXPECT_EQ(dev.image(), old);
}

TEST(ConfigPort, ColumnsBitstreamOnSerialPortIsTheWholeMergedImage) {
  Rng rng(14);
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPortSpec spec;
  spec.partialReconfig = false;
  ConfigPort port(dev, spec);
  const ConfigMap& map = dev.configMap();
  for (int trial = 0; trial < 8; ++trial) {
    fillRam(dev, rng);
    port.resyncExpected();
    // An upset behind the port's back: the RAM now differs from the golden
    // image in one bit, and only the golden value may reach the stream.
    const auto upset = static_cast<std::uint32_t>(rng.below(map.totalBits()));
    dev.setConfigBit(upset, !dev.image().get(upset));
    const Bitstream src = randomPartial(map, rng);
    const auto c0 = static_cast<std::uint16_t>(rng.below(4));
    const auto c1 = static_cast<std::uint16_t>(c0 + rng.below(4u - c0));
    for (const bool changedOnly : {false, true}) {
      const Bitstream bs = port.columnsBitstream(src, c0, c1, changedOnly);
      EXPECT_TRUE(bs.full);
      EXPECT_TRUE(bs.crcOk());
      EXPECT_EQ(bs.frameCount(), map.frameCount());
      ConfigImage applied(map.totalBits());
      applyBitstream(applied, bs);
      EXPECT_EQ(applied,
                mergedOracle(map, port.expectedImage(), src, c0, c1))
          << "trial " << trial << " changedOnly " << changedOnly;
    }
  }
  // Nothing to change still means a whole-device download.
  const Bitstream ram = makeFullBitstream(dev.image(), map.frameBits());
  EXPECT_EQ(port.columnsBitstream(ram, 0, 0, true).frameCount(),
            map.frameCount());
  // An upset outside the range is overwritten with the intended bit, so
  // downloading the result keeps the golden image and repairs the RAM.
  const std::uint32_t bit = map.framesOfColumns(3, 3).first * map.frameBits();
  const bool intended = port.expectedImage().get(bit);
  dev.setConfigBit(bit, !intended);
  port.download(port.columnsBitstream(
      makeFullBitstream(dev.image(), map.frameBits()), 0, 0, false));
  EXPECT_EQ(port.expectedImage().get(bit), intended);
  EXPECT_EQ(dev.image().get(bit), intended);
}

TEST(ConfigPort, ColumnsBitstreamRejectsMismatchedInput) {
  Device dev(tinyGeom(), DeviceTiming{}, 64);
  ConfigPort port(dev, ConfigPortSpec{});
  const ConfigMap& map = dev.configMap();
  const ConfigImage blank(map.totalBits());
  // Frames of the wrong size, a frame beyond the device, a bad range.
  EXPECT_THROW(port.columnsBitstream(makeFullBitstream(ConfigImage(64), 32),
                                     0, 0, false),
               std::invalid_argument);
  Bitstream beyond = framesOf(map, blank, {0});
  beyond.frames[0].id = map.frameCount();
  EXPECT_THROW(port.columnsBitstream(beyond, 0, 3, false),
               std::invalid_argument);
  EXPECT_THROW(port.columnsBitstream(Bitstream{}, 2, 1, false),
               std::invalid_argument);
  EXPECT_THROW(port.columnsBitstream(Bitstream{}, 0, 4, false),
               std::invalid_argument);
}

TEST(DeviceFamily, ProfilesAreWellFormed) {
  for (const DeviceProfile& p : allProfiles()) {
    EXPECT_FALSE(p.name.empty());
    Device dev = p.makeDevice();
    EXPECT_GT(dev.configMap().totalBits(), 0u);
    EXPECT_TRUE(dev.configOk());  // blank config is valid (empty design)
  }
  EXPECT_EQ(profileByName("tiny").name, "tiny");
  EXPECT_THROW(profileByName("nope"), std::out_of_range);
}

TEST(DeviceFamily, Xc4000FullConfigNear200ms) {
  DeviceProfile p = xc4000SerialProfile();
  Device dev = p.makeDevice();
  ConfigPort port(dev, p.port);
  const double ms = toMilliseconds(port.fullDownloadCost());
  // Paper, §2: "no more than 200 ms" for a full serial download.
  EXPECT_GT(ms, 100.0);
  EXPECT_LE(ms, 220.0);
}

TEST(DeviceFamily, PartialPortMakesSmallUpdatesCheap) {
  DeviceProfile p = xc4000PartialProfile();
  Device dev = p.makeDevice();
  ConfigPort port(dev, p.port);
  std::vector<std::uint32_t> one{0};
  Bitstream part = makePartialBitstream(dev.image(), p.frameBits, one);
  EXPECT_LT(port.downloadCost(part), port.fullDownloadCost() / 100);
}

}  // namespace
}  // namespace vfpga
