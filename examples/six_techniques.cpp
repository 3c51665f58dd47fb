// A guided tour of the six VFPGA techniques from the paper's §2, each
// exercised on the same simulated device:
//   1. dynamic loading      5. pagination
//   2. partitioning         6. I/O multiplexing
//   3. overlaying
//   4. segmentation
// Run it to see, for each technique, what the OS did and what it cost.
#include <cstdio>

#include "compile/loaded_circuit.hpp"
#include "core/dynamic_loader.hpp"
#include "core/io_mux.hpp"
#include "core/overlay_manager.hpp"
#include "core/page_manager.hpp"
#include "core/partition_manager.hpp"
#include "core/segment_manager.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"

using namespace vfpga;

namespace {

Netlist named(Netlist nl, const char* name) {
  nl.setName(name);
  return nl;
}

}  // namespace

int main() {
  DeviceProfile prof = mediumPartialProfile();
  std::printf("device: %s (%ux%u CLBs, %u-column frames)\n\n",
              prof.name.c_str(), prof.geometry.cols, prof.geometry.rows,
              prof.geometry.cols);

  // ---- 1. dynamic loading --------------------------------------------------
  {
    Device dev = prof.makeDevice();
    ConfigPort port(dev, prof.port);
    Compiler compiler(dev);
    ConfigRegistry registry(dev);
    DynamicLoader loader(dev, port, registry);
    const Region strip = Region::columns(dev.geometry(), 0, 4);
    ConfigId a = registry.add(
        compiler.compile(named(lib::makeCounter(6), "count"), strip));
    ConfigId b = registry.add(
        compiler.compile(named(lib::makeChecksum(6), "csum"), strip));
    auto c1 = loader.activate(a, a);
    auto c2 = loader.activate(b, b);
    auto c3 = loader.activate(a, a);
    std::printf("1. DYNAMIC LOADING: three context switches cost "
                "%.2f / %.2f / %.2f ms (download + state moves)\n",
                toMilliseconds(c1.total), toMilliseconds(c2.total),
                toMilliseconds(c3.total));
  }

  // ---- 2. partitioning -----------------------------------------------------
  {
    Device dev = prof.makeDevice();
    ConfigPort port(dev, prof.port);
    Compiler compiler(dev);
    ConfigRegistry registry(dev);
    PartitionManager pm(dev, port, registry, compiler, {});
    const Region strip = Region::columns(dev.geometry(), 0, 4);
    ConfigId a = registry.add(
        compiler.compile(named(lib::makeCounter(6), "count"), strip));
    ConfigId b = registry.add(
        compiler.compile(named(lib::makeChecksum(6), "csum"), strip));
    ConfigId c = registry.add(
        compiler.compile(named(lib::makeLfsr(8, 0b10111000), "lfsr"), strip));
    auto la = pm.load(a);
    auto lb = pm.load(b);
    auto lc = pm.load(c);
    std::printf("2. PARTITIONING: three circuits resident at once in strips "
                "[%u..], [%u..], [%u..]; device decodes cleanly: %s\n",
                pm.circuitIn(la->partition).region.x0,
                pm.circuitIn(lb->partition).region.x0,
                pm.circuitIn(lc->partition).region.x0,
                dev.configOk() ? "yes" : "NO");
  }

  // ---- 3. overlaying -------------------------------------------------------
  {
    Device dev = prof.makeDevice();
    ConfigPort port(dev, prof.port);
    Compiler compiler(dev);
    OverlayManager om(dev, port, compiler, 4);
    om.installResident(compiler.compile(
        named(lib::makeChecksum(6), "common"),
        Region::columns(dev.geometry(), 0, 4)));
    OverlayId f1 = om.addOverlay(compiler.compile(
        named(lib::makeCounter(6), "rare1"),
        Region::columns(dev.geometry(), 0, 4)));
    OverlayId f2 = om.addOverlay(compiler.compile(
        named(lib::makeLfsr(8, 0b10111000), "rare2"),
        Region::columns(dev.geometry(), 0, 4)));
    om.invoke(f1);
    om.invoke(f1);
    om.invoke(f2);
    om.invoke(f1);
    std::printf("3. OVERLAYING: resident common function + 4 overlay "
                "invocations -> %llu loads (hit rate %.0f%%)\n",
                static_cast<unsigned long long>(om.overlayLoads()),
                100.0 * om.hitRate());
  }

  // ---- 4. segmentation -----------------------------------------------------
  {
    Device dev = prof.makeDevice();
    ConfigPort port(dev, prof.port);
    Compiler compiler(dev);
    SegmentManager sm(dev, port, compiler);
    std::vector<SegmentId> segs;
    for (int i = 0; i < 3; ++i) {
      Netlist nl = lib::makeChecksum(4);
      nl.setName("seg" + std::to_string(i));
      segs.push_back(sm.addSegment(compiler.compile(
          nl, Region::columns(dev.geometry(), 0, 5))));
    }
    for (SegmentId s : {segs[0], segs[1], segs[0], segs[2], segs[0]}) {
      sm.access(s);
    }
    std::printf("4. SEGMENTATION: 5 accesses over 3 variable-size segments "
                "(only 2 fit) -> %llu faults, %llu evictions\n",
                static_cast<unsigned long long>(sm.faults()),
                static_cast<unsigned long long>(sm.evictions()));
  }

  // ---- 5. pagination -------------------------------------------------------
  {
    Device dev = prof.makeDevice();
    PageManager pm(prof.port, dev.configMap().frameBits(),
                   PageManagerOptions{4, 32, ReplacementPolicy::kLru});
    ConfigId big = pm.addFunction(112);   // a function of 28 pages
    ConfigId sml = pm.addFunction(20);    // 5 pages
    auto r1 = pm.access(big);
    auto r2 = pm.access(sml);
    auto r3 = pm.access(big);  // re-faults what sml displaced
    std::printf("5. PAGINATION: page faults %u / %u / %u across three "
                "invocations (capacity 32 pages), %.2f ms total stall\n",
                r1.pageFaults, r2.pageFaults, r3.pageFaults,
                toMilliseconds(r1.stall + r2.stall + r3.stall));
  }

  // ---- 6. I/O multiplexing -------------------------------------------------
  {
    IoMux mux(IoMuxSpec{16, nanos(50), nanos(20), nanos(5)});
    std::printf("6. I/O MULTIPLEXING: 64 virtual pins over 16 physical -> "
                "%u bus frames per transfer, per-pin bandwidth %.1f%% of "
                "native\n",
                mux.framesFor(64),
                100.0 * mux.effectivePinBandwidth(64) /
                    mux.effectivePinBandwidth(16));
  }

  std::printf("\nall six techniques of Fornaciari & Piuri, §2, on one "
              "simulated part.\n");
  return 0;
}
