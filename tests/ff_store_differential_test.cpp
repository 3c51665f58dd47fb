// Eager-versus-lazy elaboration differential over the fabric-rewriting
// paths. Two devices take the same seeded sequence of operations: partial
// downloads of relocated library circuits at random base columns (with or
// without a state load), clearConfig, LUT upsets, readback scrub repair,
// applyInitialState / restoreState / setFfState, and evaluate / tick.
// Device A elaborates after every mutation; device B never asks, so its
// register writes land while its elaboration is stale. After every step
// the dense FF state, every loaded circuit's saved state and every pad
// output must agree. One seed also serves B through the compiled engine.
//
// A second differential holds the configuration RAM and the port's golden
// image as one byte per bit beside a device: random bitstreams, changed-only
// column writes, tampered downloads, upsets and scrub repairs go to both,
// and the packed images must read back the reference bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "fabric/config_port.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"
#include "sim/compiled/compiled_fabric.hpp"
#include "sim/rng.hpp"
#include "workloads/compile_suite.hpp"

namespace vfpga {
namespace {

/// Library circuits compiled once at their minimal strip width;
/// relocated[i][x0] is circuit i relocated to base column x0.
const std::vector<std::vector<CompiledCircuit>>& relocated() {
  static const std::vector<std::vector<CompiledCircuit>> pool = [] {
    Device host = mediumPartialProfile().makeDevice();
    Compiler compiler(host);
    std::vector<std::vector<CompiledCircuit>> out;
    for (const Netlist& nl :
         {lib::makeCounter(6), lib::makeLfsr(8, 0b10111000),
          lib::makeSerialCrc(8, 0x07), lib::makeChecksum(4)}) {
      const CompiledCircuit base = workloads::compileMinimal(compiler, nl);
      std::vector<CompiledCircuit>& row = out.emplace_back();
      for (int x0 = 0; x0 + base.region.w <= host.geometry().cols; ++x0) {
        row.push_back(x0 == base.region.x0
                          ? base
                          : compiler.relocate(
                                base, static_cast<std::uint16_t>(x0)));
      }
    }
    return out;
  }();
  return pool;
}

struct Side {
  explicit Side(const DeviceProfile& prof)
      : dev(prof.makeDevice()), port(dev, prof.port) {}
  Device dev;
  ConfigPort port;
};

std::vector<bool> randomBits(Rng& rng, std::size_t n) {
  std::vector<bool> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.bernoulli(0.5);
  return v;
}

/// Runs `steps` seeded operations and counts in `staleWrites` the steps
/// that wrote registers into B while its elaboration was stale (so a run
/// can show it tested the lazy path).
void runDifferential(std::uint64_t seed, int steps, bool compiled,
                     std::size_t& staleWrites) {
  const DeviceProfile prof = mediumPartialProfile();
  Side a(prof), b(prof);
  std::unique_ptr<compiled::CompiledFabric> fast;
  if (compiled) fast = std::make_unique<compiled::CompiledFabric>(b.dev);
  const FabricGeometry& g = a.dev.geometry();
  const ConfigMap& map = a.dev.configMap();
  const auto& circuits = relocated();
  Rng rng(seed);
  std::vector<const CompiledCircuit*> loaded;
  staleWrites = 0;

  // Applies one mutation to both devices; only A elaborates afterwards.
  auto both = [&](auto&& mutate) {
    mutate(a);
    (void)a.dev.elaboration();
    mutate(b);
  };

  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    const std::uint64_t cyclesBefore = b.dev.cyclesTicked();
    bool wroteStale = false;
    switch (rng.below(10)) {
      case 0:
      case 1:
      case 2: {  // partial download of a relocated circuit, then its state
        const auto& row = circuits[rng.below(circuits.size())];
        const CompiledCircuit& c = row[rng.below(row.size())];
        const Bitstream bs = c.partialBitstream();
        both([&](Side& s) { s.port.download(bs); });
        std::erase_if(loaded, [&](const CompiledCircuit* l) {
          return l->region.x0 < c.region.x0 + c.region.w &&
                 c.region.x0 < l->region.x0 + l->region.w;
        });
        loaded.push_back(&c);
        const std::uint64_t load = rng.below(3);
        const std::vector<bool> state = randomBits(rng, c.ffCount());
        if (load == 0) {
          both([&](Side& s) { LoadedCircuit(s.dev, c).applyInitialState(); });
        } else if (load == 1) {
          both([&](Side& s) { LoadedCircuit(s.dev, c).restoreState(state); });
        }
        wroteStale = load != 2 && c.ffCount() > 0;
        break;
      }
      case 3:  // blank the device
        both([](Side& s) {
          s.dev.clearConfig();
          s.port.resyncExpected();
        });
        loaded.clear();
        break;
      case 4: {  // a configuration upset in one LUT bit
        const auto x = static_cast<int>(rng.below(g.cols));
        const auto y = static_cast<int>(rng.below(g.rows));
        const std::uint32_t bit = map.clbLutBit(
            x, y, static_cast<std::uint32_t>(rng.below(g.lutBits())));
        both([&](Side& s) {
          s.dev.setConfigBit(bit, !s.dev.image().get(bit));
        });
        break;
      }
      case 5:  // readback scrub rewrites every frame that differs
        both([](Side& s) { (void)s.port.scrub(); });
        break;
      case 6: {  // initial or random state into one loaded circuit
        if (loaded.empty()) break;
        const CompiledCircuit& c = *loaded[rng.below(loaded.size())];
        if (rng.bernoulli(0.5)) {
          both([&](Side& s) { LoadedCircuit(s.dev, c).applyInitialState(); });
        } else {
          const std::vector<bool> state = randomBits(rng, c.ffCount());
          both([&](Side& s) { LoadedCircuit(s.dev, c).restoreState(state); });
        }
        break;
      }
      case 7: {  // dense writeback of the whole device
        const std::vector<bool> state = randomBits(rng, a.dev.ffCount());
        both([&](Side& s) { s.dev.setFfState(state); });
        break;
      }
      default: {  // drive every pad slot and run a few cycles
        const auto cycles = static_cast<int>(rng.range(1, 4));
        for (int k = 0; k < cycles; ++k) {
          const std::vector<bool> pads = randomBits(rng, g.padSlotCount());
          both([&](Side& s) {
            for (std::size_t p = 0; p < pads.size(); ++p) {
              s.dev.setPadSlotInput(p, pads[p]);
            }
            s.dev.evaluate();
          });
          if (k + 1 < cycles) both([](Side& s) { s.dev.tick(); });
        }
        break;
      }
    }

    // Per-site reads first: they must not elaborate B either.
    for (const CompiledCircuit* c : loaded) {
      ASSERT_EQ(LoadedCircuit(a.dev, *c).saveState(),
                LoadedCircuit(b.dev, *c).saveState());
    }
    if (wroteStale) {
      ++staleWrites;
      EXPECT_EQ(b.dev.cyclesTicked(), cyclesBefore)
          << "a register write elaborated the device";
    }
    ASSERT_EQ(a.dev.ffState(), b.dev.ffState());
    for (std::size_t p = 0; p < g.padSlotCount(); ++p) {
      ASSERT_EQ(a.dev.padSlotOutput(p), b.dev.padSlotOutput(p)) << "pad " << p;
    }
  }
  if (fast != nullptr) {
    EXPECT_GT(fast->stats().compiledEvaluates, 0u);
    EXPECT_GT(fast->stats().compiledTicks, 0u);
  }
}

/// The configuration RAM and the golden image, one byte per bit.
struct ByteImages {
  std::vector<std::uint8_t> ram;
  std::vector<std::uint8_t> golden;

  /// Frame `id` of an image as one byte per bit.
  static std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& img,
                                         std::uint32_t frameBits,
                                         std::uint32_t id) {
    const auto at = img.begin() + std::ptrdiff_t{id} * frameBits;
    return {at, at + frameBits};
  }
  static void write(std::vector<std::uint8_t>& img, std::uint32_t frameBits,
                    std::uint32_t id, const std::vector<std::uint8_t>& bits) {
    std::copy(bits.begin(), bits.end(),
              img.begin() + std::ptrdiff_t{id} * frameBits);
  }
};

/// One byte per bit of a frame's payload.
std::vector<std::uint8_t> unpacked(const Frame& f, std::uint32_t frameBits) {
  std::vector<std::uint8_t> bits(frameBits);
  for (std::uint32_t i = 0; i < frameBits; ++i) bits[i] = f.bit(i) ? 1 : 0;
  return bits;
}

/// A sealed stream of random payloads: every frame of the device, or a
/// random subset of them.
Bitstream randomStream(Rng& rng, const ConfigMap& map, bool full) {
  Bitstream bs;
  bs.frameBits = map.frameBits();
  bs.full = full;
  for (std::uint32_t id = 0; id < map.frameCount(); ++id) {
    if (!full && !rng.bernoulli(0.1)) continue;
    Frame f{id, std::vector<std::uint8_t>(payloadBytes(bs.frameBits), 0)};
    for (std::uint32_t i = 0; i < bs.frameBits; ++i) {
      f.setBit(i, rng.bernoulli(0.3));
    }
    bs.frames.push_back(std::move(f));
  }
  bs.sealCrc();
  return bs;
}

void runByteReference(const DeviceProfile& prof, std::uint64_t seed,
                      int steps) {
  Side s(prof);
  const ConfigMap& map = s.dev.configMap();
  const std::uint32_t fb = map.frameBits();
  const bool partial = prof.port.partialReconfig;
  ByteImages ref{std::vector<std::uint8_t>(map.totalBits(), 0),
                 std::vector<std::uint8_t>(map.totalBits(), 0)};
  Rng rng(seed);
  std::size_t repaired = 0;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message()
                 << prof.name << " seed " << seed << " step " << step);
    switch (rng.below(6)) {
      case 0: {  // a random full or partial bitstream
        const Bitstream bs =
            randomStream(rng, map, !partial || rng.bernoulli(0.2));
        s.port.download(bs);
        for (const Frame& f : bs.frames) {
          ByteImages::write(ref.ram, fb, f.id, unpacked(f, fb));
          ByteImages::write(ref.golden, fb, f.id, unpacked(f, fb));
        }
        break;
      }
      case 1: {  // a changed-only write of a column range
        const int cols = s.dev.geometry().cols;
        const auto c0 = static_cast<std::uint16_t>(rng.below(cols));
        const auto c1 = static_cast<std::uint16_t>(c0 + rng.below(cols - c0));
        // Random frames, or the RAM's own frames with a few bits flipped,
        // so that most frames are unchanged.
        Bitstream src = randomStream(rng, map, false);
        if (rng.bernoulli(0.5)) {
          src = makeFullBitstream(s.dev.image(), fb);
          for (int k = 0; k < 3; ++k) {
            src.frames[rng.below(src.frameCount())].flipBit(
                static_cast<std::uint32_t>(rng.below(fb)));
          }
          src.sealCrc();
        }
        const Bitstream bs = s.port.columnsBitstream(src, c0, c1, true);
        const auto [f0, f1] = map.framesOfColumns(c0, c1);
        std::vector<std::vector<std::uint8_t>> want(
            f1 - f0, std::vector<std::uint8_t>(fb, 0));
        for (const Frame& f : src.frames) {
          if (f.id >= f0 && f.id < f1) want[f.id - f0] = unpacked(f, fb);
        }
        std::size_t changed = 0;
        for (std::uint32_t id = f0; id < f1; ++id) {
          changed += want[id - f0] != ByteImages::frame(ref.ram, fb, id) ||
                     want[id - f0] != ByteImages::frame(ref.golden, fb, id);
        }
        EXPECT_EQ(bs.frameCount(), partial ? changed : map.frameCount());
        s.port.download(bs);
        for (std::uint32_t id = f0; id < f1; ++id) {
          ByteImages::write(ref.golden, fb, id, want[id - f0]);
          if (partial) ByteImages::write(ref.ram, fb, id, want[id - f0]);
        }
        // A serial port rewrites every frame from the golden image.
        if (!partial) ref.ram = ref.golden;
        break;
      }
      case 2: {  // a download the wire truncates and flips bits of
        const Bitstream bs = randomStream(rng, map, !partial);
        if (bs.frames.empty()) break;
        DownloadTamper t;
        t.framesApplied = rng.below(bs.frameCount() + 1);
        for (int k = 0; k < 3; ++k) {
          t.flips.emplace_back(rng.below(bs.frameCount()),
                               static_cast<std::uint32_t>(rng.below(fb)));
        }
        s.port.setTamperHook([&t](const Bitstream&) { return t; });
        s.port.download(bs);
        s.port.setTamperHook({});
        std::vector<std::vector<std::uint8_t>> wire;
        for (const Frame& f : bs.frames) {
          ByteImages::write(ref.golden, fb, f.id, unpacked(f, fb));
          wire.push_back(unpacked(f, fb));
        }
        for (const auto& [frame, bit] : t.flips) wire[frame][bit] ^= 1;
        for (std::size_t k = 0; k < t.framesApplied; ++k) {
          ByteImages::write(ref.ram, fb, bs.frames[k].id, wire[k]);
        }
        break;
      }
      case 3: {  // a configuration upset
        const auto bit = static_cast<std::uint32_t>(rng.below(map.totalBits()));
        s.dev.setConfigBit(bit, !s.dev.image().get(bit));
        ref.ram[bit] ^= 1;
        break;
      }
      case 4: {  // readback scrub repairs toward the golden image
        std::uint32_t dirty = 0;
        for (std::uint32_t id = 0; id < map.frameCount(); ++id) {
          const auto want = ByteImages::frame(ref.golden, fb, id);
          if (ByteImages::frame(ref.ram, fb, id) == want) continue;
          ByteImages::write(ref.ram, fb, id, want);
          ++dirty;
        }
        EXPECT_EQ(s.port.scrub().repairedFrames, dirty);
        repaired += dirty;
        break;
      }
      default:  // blank the device
        s.dev.clearConfig();
        s.port.resyncExpected();
        ref.ram.assign(ref.ram.size(), 0);
        ref.golden = ref.ram;
        break;
    }
    for (std::uint32_t b = 0; b < map.totalBits(); ++b) {
      ASSERT_EQ(s.dev.image().get(b), ref.ram[b] != 0) << "RAM bit " << b;
      ASSERT_EQ(s.port.expectedImage().get(b), ref.golden[b] != 0)
          << "golden bit " << b;
    }
  }
  EXPECT_GT(repaired, 0u);
  EXPECT_THROW((void)s.dev.image().get(map.totalBits()), std::out_of_range);
}

TEST(FfStoreDifferential, PackedImagesMatchBytePerBitReference) {
  for (const DeviceProfile& prof :
       {tinyProfile(), mediumPartialProfile(), mediumSerialProfile()}) {
    runByteReference(prof, 7, 150);
    if (HasFatalFailure()) return;
  }
}

TEST(FfStoreDifferential, EagerAndLazyElaborationAgree) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::size_t staleWrites = 0;
    runDifferential(seed, 400, false, staleWrites);
    if (HasFatalFailure()) return;
    EXPECT_GT(staleWrites, 40u);
  }
}

TEST(FfStoreDifferential, LazyDeviceOnCompiledEngineAgrees) {
  std::size_t staleWrites = 0;
  runDifferential(5, 400, true, staleWrites);
  EXPECT_GT(staleWrites, 40u);
}

}  // namespace
}  // namespace vfpga
