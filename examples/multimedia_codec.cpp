// Multimedia scenario from the paper's §5: "multimedia systems can benefit
// from the use of VFPGA implementing different voice and image
// compression/decompression algorithms in order to accommodate different
// standards efficiently on a limited-size FPGA."
//
// A media gateway receives a stream of "frames", each tagged with one of
// three standards. Each standard needs a different hardware front-end:
//   standard A — run-length detector (image RLE pre-pass),
//   standard B — multiply-accumulate (transform-coder kernel),
//   standard C — running checksum (container integrity).
// The device is too small to hold all three at once in one fixed design,
// so the OS dynamically loads the right codec per frame burst and the
// example reports the reconfiguration overhead that policy costs.
#include <cstdio>
#include <vector>

#include "compile/loaded_circuit.hpp"
#include "core/dynamic_loader.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/arith.hpp"
#include "netlist/library/datapath.hpp"
#include "sim/rng.hpp"
#include "workloads/compile_suite.hpp"

using namespace vfpga;

namespace {

struct FrameBurst {
  int standard;  // 0, 1, 2
  std::vector<std::uint64_t> samples;
};

std::vector<FrameBurst> makeStream(std::size_t bursts, Rng& rng) {
  std::vector<FrameBurst> stream;
  int current = 0;
  for (std::size_t i = 0; i < bursts; ++i) {
    // Standards switch with some locality (a call keeps its codec a while).
    if (rng.bernoulli(0.25)) current = static_cast<int>(rng.below(3));
    FrameBurst b;
    b.standard = current;
    const std::size_t n = 8000 + rng.below(12000);  // samples per burst
    for (std::size_t s = 0; s < n; ++s) b.samples.push_back(rng.next() & 0xF);
    stream.push_back(std::move(b));
  }
  return stream;
}

}  // namespace

int main() {
  DeviceProfile profile = mediumPartialProfile();
  Device device = profile.makeDevice();
  ConfigPort port(device, profile.port);
  Compiler compiler(device);
  ConfigRegistry registry(device);
  DynamicLoader loader(device, port, registry);

  // Compile the three codec front-ends into same-width strips.
  Netlist rle = lib::makeRunLengthDetector(4, 6);
  rle.setName("codec_rle");
  Netlist mac = lib::makeMac(3);
  mac.setName("codec_mac");
  Netlist ck = lib::makeChecksum(8);
  ck.setName("codec_checksum");
  const Region strip = Region::columns(device.geometry(), 0, 7);
  const ConfigId codec[3] = {
      registry.add(compiler.compile(rle, strip)),
      registry.add(compiler.compile(mac, strip)),
      registry.add(compiler.compile(ck, strip)),
  };
  const char* codecName[3] = {"RLE", "MAC", "CHECKSUM"};

  Rng rng(2026);
  const auto stream = makeStream(40, rng);

  SimDuration reconfigTime = 0;
  SimDuration computeTime = 0;
  std::uint64_t switches = 0;
  std::uint64_t results[3] = {0, 0, 0};

  for (const FrameBurst& burst : stream) {
    auto cost = loader.activate(codec[burst.standard], codec[burst.standard]);
    if (cost.downloaded) ++switches;
    reconfigTime += cost.total;
    LoadedCircuit lc = loader.loaded();
    const SimDuration period = device.minClockPeriod();
    for (std::uint64_t sample : burst.samples) {
      switch (burst.standard) {
        case 0:
          lc.setInputBus("d", 4, sample);
          break;
        case 1:
          lc.setInputBus("a", 3, sample & 7);
          lc.setInputBus("b", 3, (sample >> 1) & 7);
          lc.setInput("clr", false);
          break;
        case 2:
          lc.setInputBus("d", 8, sample);
          break;
      }
      lc.evaluate();
      lc.tick();
      computeTime += period;
    }
    lc.evaluate();
    switch (burst.standard) {
      case 0: results[0] += lc.outputBus("run", 6); break;
      case 1: results[1] = lc.outputBus("acc", 6); break;
      case 2: results[2] = lc.outputBus("acc", 8); break;
    }
  }

  std::printf("multimedia gateway processed %zu bursts on one %ux%u device\n",
              stream.size(), device.geometry().cols, device.geometry().rows);
  for (int s = 0; s < 3; ++s) {
    std::printf("  standard %s: accumulated result %llu\n", codecName[s],
                static_cast<unsigned long long>(results[s]));
  }
  std::printf("codec switches: %llu, reconfig %.3f ms, compute %.3f ms\n",
              static_cast<unsigned long long>(switches),
              toMilliseconds(reconfigTime), toMilliseconds(computeTime));
  std::printf("virtualization overhead: %.1f%% of total time\n",
              100.0 * double(reconfigTime) /
                  double(reconfigTime + computeTime));
  // Sanity: all three standards actually produced work.
  return (results[0] > 0 && results[2] > 0 && switches >= 3) ? 0 : 1;
}
