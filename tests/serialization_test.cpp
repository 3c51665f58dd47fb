// Bitstream byte-format round trips and the VCD waveform writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "compile/compiler.hpp"
#include "compile/loaded_circuit.hpp"
#include "fabric/bitstream.hpp"
#include "fabric/config_port.hpp"
#include "fabric/device_family.hpp"
#include "fabric/vcd.hpp"
#include "netlist/library/control.hpp"
#include "sim/rng.hpp"
#include "workloads/app_circuits.hpp"
#include "workloads/compile_suite.hpp"

namespace vfpga {
namespace {

Bitstream sampleBitstream(std::uint32_t frameBits, std::uint32_t frames,
                          std::uint64_t seed) {
  ConfigImage img(frameBits * frames);
  Rng rng(seed);
  for (std::uint32_t b = 0; b < img.size(); ++b) {
    img.set(b, rng.bernoulli(0.3));
  }
  return makeFullBitstream(img, frameBits);
}

TEST(BitstreamSerialization, RoundTripFull) {
  Bitstream bs = sampleBitstream(128, 7, 11);
  const auto bytes = serializeBitstream(bs);
  Bitstream back = deserializeBitstream(bytes);
  EXPECT_EQ(back.frameBits, bs.frameBits);
  EXPECT_EQ(back.full, bs.full);
  ASSERT_EQ(back.frames.size(), bs.frames.size());
  for (std::size_t f = 0; f < bs.frames.size(); ++f) {
    EXPECT_EQ(back.frames[f].id, bs.frames[f].id);
    EXPECT_EQ(back.frames[f].payload, bs.frames[f].payload);
  }
  EXPECT_EQ(back.crc, bs.crc);
  EXPECT_TRUE(back.crcOk());
}

TEST(BitstreamSerialization, RoundTripPartialOddFrameBits) {
  // frameBits not a byte multiple exercises the packing tail.
  ConfigImage img(3 * 37);
  img.set(5, true);
  img.set(100, true);
  std::vector<std::uint32_t> ids{0, 2};
  Bitstream bs = makePartialBitstream(img, 37, ids);
  Bitstream back = deserializeBitstream(serializeBitstream(bs));
  EXPECT_FALSE(back.full);
  ASSERT_EQ(back.frames.size(), 2u);
  EXPECT_EQ(back.frames[0].payload, bs.frames[0].payload);
  EXPECT_EQ(back.frames[1].payload, bs.frames[1].payload);
}

TEST(BitstreamSerialization, PaddingBitsAreIgnoredAndWrittenClean) {
  // 37-bit frames take 5 payload bytes; bits 5-7 of the last are padding.
  ConfigImage img(3 * 37);
  for (const std::uint32_t b : {0u, 36u, 74u, 100u, 110u}) img.set(b, true);
  const std::vector<std::uint32_t> ids{0, 2};
  const Bitstream bs = makePartialBitstream(img, 37, ids);
  const std::vector<std::uint8_t> clean = serializeBitstream(bs);
  // Header 15 bytes, then per frame a 4-byte id and 5 payload bytes.
  ASSERT_EQ(clean.size(), 15u + 2 * 9 + 2);
  std::vector<std::uint8_t> dirty = clean;
  dirty[15 + 8] |= 0xE0;
  dirty[15 + 9 + 8] |= 0xA0;
  // The CRC covers frame bits only, so the dirty file parses to the clean
  // stream, applies like it and serializes back to the clean bytes.
  const Bitstream back = deserializeBitstream(dirty);
  EXPECT_EQ(back.crc, bs.crc);
  ASSERT_EQ(back.frames.size(), 2u);
  EXPECT_EQ(back.frames[0].payload, bs.frames[0].payload);
  EXPECT_EQ(back.frames[1].payload, bs.frames[1].payload);
  EXPECT_EQ(serializeBitstream(back), clean);
  ConfigImage fromDirty(3 * 37);
  applyBitstream(fromDirty, back);
  ConfigImage fromClean(3 * 37);
  applyBitstream(fromClean, bs);
  EXPECT_EQ(fromDirty, fromClean);
  // Padding bits set in memory are not written either.
  Bitstream raw = bs;
  raw.frames[1].payload.back() |= 0xE0;
  EXPECT_TRUE(raw.crcOk());
  EXPECT_TRUE(frameHolds(img, 37, 2, raw.frames[1].payload));
  EXPECT_EQ(serializeBitstream(raw), clean);
}

TEST(BitstreamSerialization, ForgedFrameCountIsRejectedWithoutAllocating) {
  // A 15-byte header whose frame count (0xFFFFFFFF) no payload follows.
  // Reserving for it would ask for over 100 GiB; the decoder must check the
  // count against the bytes that remain and report a truncated file.
  const std::vector<std::uint8_t> forged = {
      'V', 'F', 'P', 'B', 1, 0,  // magic, version 1
      64, 0, 0, 0,               // frameBits
      1,                         // full
      0xFF, 0xFF, 0xFF, 0xFF};   // frame count
  ASSERT_EQ(forged.size(), 15u);
  try {
    deserializeBitstream(forged);
    ADD_FAILURE() << "forged frame count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "truncated bitstream file");
  }
  // One frame short of a valid count is a truncation too.
  auto bytes = serializeBitstream(sampleBitstream(64, 4, 5));
  bytes[11] = 5;
  EXPECT_THROW(deserializeBitstream(bytes), std::runtime_error);
}

TEST(BitstreamSerialization, DetectsEveryKindOfDamage) {
  Bitstream bs = sampleBitstream(64, 4, 23);
  auto bytes = serializeBitstream(bs);

  auto expectReject = [](std::vector<std::uint8_t> b) {
    EXPECT_THROW(deserializeBitstream(b), std::runtime_error);
  };
  // Bad magic.
  {
    auto b = bytes;
    b[0] = 'X';
    expectReject(b);
  }
  // Unsupported version.
  {
    auto b = bytes;
    b[4] = 0xFF;
    expectReject(b);
  }
  // Truncation at every prefix length must throw, never crash.
  for (std::size_t cut : {std::size_t{3}, std::size_t{9}, bytes.size() / 2,
                          bytes.size() - 1}) {
    expectReject({bytes.begin(), bytes.begin() + static_cast<long>(cut)});
  }
  // Payload corruption -> CRC mismatch.
  {
    auto b = bytes;
    b[20] ^= 0x10;
    expectReject(b);
  }
  // Trailing garbage.
  {
    auto b = bytes;
    b.push_back(0);
    expectReject(b);
  }
  // Pristine bytes still parse.
  EXPECT_NO_THROW(deserializeBitstream(bytes));

  // Seeded byte mutations of real circuits' bitstreams: every mutant is
  // rejected by the parser, or parses and then either applies to a
  // device-sized image or is refused as lying outside it.
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  Rng rng(2024);
  std::size_t parsed = 0;
  for (const char* name : {"ct_counter", "tc_crc8", "nw_parity"}) {
    const auto& suite = workloads::allSuites();
    const auto app = std::find_if(suite.begin(), suite.end(),
                                  [&](const auto& a) { return a.name == name; });
    ASSERT_NE(app, suite.end()) << name;
    const std::vector<std::uint8_t> pristine = serializeBitstream(
        workloads::compileMinimal(compiler, app->netlist).partialBitstream());
    for (int m = 0; m < 200; ++m) {
      std::vector<std::uint8_t> b = pristine;
      const std::uint64_t edits = 1 + rng.below(4);
      for (std::uint64_t e = 0; e < edits; ++e) {
        const std::size_t at = rng.below(b.size());
        switch (rng.below(3)) {
          case 0: b[at] ^= static_cast<std::uint8_t>(1u << rng.below(8)); break;
          case 1: b[at] = static_cast<std::uint8_t>(rng.below(256)); break;
          default: b.resize(at); break;
        }
        if (b.empty()) break;
      }
      Bitstream mutant;
      try {
        mutant = deserializeBitstream(b);
      } catch (const std::runtime_error&) {
        continue;
      }
      ++parsed;
      ConfigImage image(dev.configMap().totalBits());
      try {
        applyBitstream(image, mutant);
      } catch (const std::out_of_range&) {
      }
    }
  }
  // Edits confined to frame ids or the full flag keep the payload CRC
  // intact, so some mutants do reach applyBitstream.
  EXPECT_GT(parsed, 0u);
}

TEST(BitstreamSerialization, ForgedFrameIdIsRejectedOnApply) {
  // The CRC covers payloads, not frame ids, so a forged id parses. At 64
  // bits per frame, id 2^26 is 2^32 bits in: an offset computed in 32 bits
  // would wrap to frame 0 and overwrite it.
  Bitstream bs = sampleBitstream(64, 4, 31);
  auto bytes = serializeBitstream(bs);
  ASSERT_EQ(bytes[15], 0u);  // frame 0's id, little-endian, at offset 15
  bytes[18] = 0x04;          // id = 0x04000000 = 2^26
  const Bitstream forged = deserializeBitstream(bytes);
  ASSERT_EQ(forged.frames[0].id, 1u << 26);

  ConfigImage image(64 * 4);
  EXPECT_THROW(applyBitstream(image, forged), std::out_of_range);
  EXPECT_EQ(image, ConfigImage(64 * 4));  // frame 0 untouched
  EXPECT_THROW(readFrame(image, 64, 1u << 26), std::out_of_range);
  const std::vector<std::uint32_t> ids{1u << 26};
  EXPECT_THROW(makePartialBitstream(image, 64, ids), std::out_of_range);
  Device dev(FabricGeometry{}, DeviceTiming{}, 64);
  EXPECT_THROW(dev.applyBitstream(forged), std::out_of_range);

  // All or nothing: frame 0 ahead of the forged frame is not written
  // either, by the device or by the port (golden image and stats alike).
  Bitstream mixed = sampleBitstream(64, 2, 5);
  mixed.full = false;
  mixed.frames[1].id = 1u << 26;
  ASSERT_TRUE(mixed.crcOk());
  ASSERT_NE(mixed.frames[0].payload,
            std::vector<std::uint8_t>(payloadBytes(64)));
  EXPECT_THROW(applyBitstream(image, mixed), std::out_of_range);
  EXPECT_EQ(image, ConfigImage(64 * 4));
  ConfigPort port(dev, ConfigPortSpec{});
  const ConfigImage before = dev.image();
  const std::uint64_t generation = dev.configGeneration();
  const ConfigPortStats stats = port.stats();
  EXPECT_THROW(dev.applyBitstream(mixed), std::out_of_range);
  EXPECT_THROW(port.download(mixed), std::out_of_range);
  EXPECT_EQ(dev.image(), before);
  EXPECT_EQ(dev.configGeneration(), generation);
  EXPECT_EQ(port.expectedImage(), before);
  EXPECT_EQ(port.stats(), stats);
}

TEST(BitstreamSerialization, CompiledCircuitRoundTripsThroughBytes) {
  // The realistic path: compile, serialize the partial bitstream "to
  // disk", load it back and configure a device with it.
  DeviceProfile prof = mediumPartialProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeCounter(6);
  CompiledCircuit c =
      compiler.compile(nl, Region::columns(dev.geometry(), 0, 4));
  const auto bytes = serializeBitstream(c.partialBitstream());
  dev.applyBitstream(deserializeBitstream(bytes));
  ASSERT_TRUE(dev.configOk()) << dev.elaboration().faults.front();
  LoadedCircuit lc(dev, c);
  lc.setInput("en", true);
  lc.setInput("clr", false);
  for (int i = 0; i < 9; ++i) {
    lc.evaluate();
    lc.tick();
  }
  lc.evaluate();
  EXPECT_EQ(lc.outputBus("q", 6), 9u);
}

// ------------------------------------------------------------------- VCD

TEST(Vcd, EmitsHeaderInitialDumpAndChangesOnly) {
  std::ostringstream os;
  VcdWriter vcd(os);
  bool a = false, b = true;
  vcd.addSignal("a", [&] { return a; });
  vcd.addSignal("top.b", [&] { return b; });
  vcd.sample(0);
  a = true;  // only a changes
  vcd.sample(5);
  vcd.sample(7);  // nothing changed: no timestamp emitted
  const std::string out = os.str();
  EXPECT_NE(out.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(out.find("$var wire 1 ! a $end"), std::string::npos);
  EXPECT_NE(out.find("#0"), std::string::npos);
  EXPECT_NE(out.find("#5"), std::string::npos);
  EXPECT_EQ(out.find("#7"), std::string::npos);
  // Initial dump has both, second stamp only 'a'.
  const auto at5 = out.find("#5");
  EXPECT_NE(out.find("1!", at5), std::string::npos);
  EXPECT_EQ(out.find("\"", at5), std::string::npos);  // b's id is '"'
}

TEST(Vcd, RejectsLateSignalsAndTimeTravel) {
  std::ostringstream os;
  VcdWriter vcd(os);
  vcd.addSignal("x", [] { return false; });
  vcd.sample(10);
  EXPECT_THROW(vcd.addSignal("y", [] { return false; }), std::logic_error);
  EXPECT_THROW(vcd.sample(5), std::logic_error);
  EXPECT_NO_THROW(vcd.sample(10));  // equal time is fine
}

TEST(Vcd, IdentifiersStayUniqueBeyondOneChar) {
  std::ostringstream os;
  VcdWriter vcd(os);
  std::vector<bool> vals(200, false);
  for (int i = 0; i < 200; ++i) {
    vcd.addSignal("s" + std::to_string(i),
                  [&vals, i] { return vals[static_cast<std::size_t>(i)]; });
  }
  vcd.sample(0);
  // 200 > 94 printable ids, so two-char identifiers appear; count the
  // distinct declarations.
  std::string out = os.str();
  std::size_t vars = 0, pos = 0;
  while ((pos = out.find("$var", pos)) != std::string::npos) {
    ++vars;
    pos += 4;
  }
  EXPECT_EQ(vars, 200u);
}

TEST(Vcd, TracesARealDeviceCounter) {
  DeviceProfile prof = tinyProfile();
  Device dev = prof.makeDevice();
  Compiler compiler(dev);
  Netlist nl = lib::makeCounter(4);
  CompileOptions opt;
  opt.relocatable = false;
  CompiledCircuit c =
      compiler.compile(nl, Region::full(dev.geometry()), opt);
  dev.applyBitstream(c.fullBitstream());
  ASSERT_TRUE(dev.configOk());
  LoadedCircuit lc(dev, c);
  lc.setInput("en", true);
  lc.setInput("clr", false);

  std::ostringstream os;
  VcdWriter vcd(os);
  for (int bit = 0; bit < 4; ++bit) {
    vcd.addSignal("q" + std::to_string(bit), [&lc, bit] {
      return lc.output("q" + std::to_string(bit));
    });
  }
  for (std::uint64_t t = 0; t < 8; ++t) {
    dev.evaluate();
    vcd.sample(t * 10);
    dev.tick();
  }
  const std::string out = os.str();
  // q0 toggles every cycle: its id '!' must appear at every timestamp.
  for (int t = 1; t < 8; ++t) {
    const auto stamp = out.find("#" + std::to_string(t * 10));
    ASSERT_NE(stamp, std::string::npos) << "missing timestamp " << t * 10;
  }
}

}  // namespace
}  // namespace vfpga
