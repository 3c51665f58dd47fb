// Device-backed VFPGA managers: dynamic loader (functional context switch
// with state save/restore), partition manager (concurrent circuits, GC with
// live-state relocation), overlay manager, segment manager, and every
// manager path that rewrites a column range, pinned by cost and RAM digest.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "analysis/diagnostics.hpp"
#include "core/dynamic_loader.hpp"
#include "core/overlay_manager.hpp"
#include "core/partition_manager.hpp"
#include "core/prefetch_loader.hpp"
#include "core/segment_manager.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"
#include "util/hash.hpp"
#include "workloads/compile_suite.hpp"

namespace vfpga {
namespace {

/// Shared fixture: a medium partial-reconfig device with a compiler and a
/// few registered circuits.
class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest()
      : profile_(mediumPartialProfile()), dev_(profile_.makeDevice()),
        port_(dev_, profile_.port), compiler_(dev_) {}

  ConfigId registerCounter(std::size_t bits, std::uint16_t width) {
    Netlist nl = lib::makeCounter(bits);
    nl.setName("ctr" + std::to_string(bits) + "w" + std::to_string(width));
    CompileOptions opt;
    opt.seed = 7;
    return registry_.add(
        compiler_.compile(nl, Region::columns(dev_.geometry(), 0, width), opt));
  }

  ConfigId registerChecksum(std::size_t bits, std::uint16_t width) {
    Netlist nl = lib::makeChecksum(bits);
    nl.setName("ck" + std::to_string(bits) + "w" + std::to_string(width));
    CompileOptions opt;
    opt.seed = 9;
    return registry_.add(
        compiler_.compile(nl, Region::columns(dev_.geometry(), 0, width), opt));
  }

  DeviceProfile profile_;
  Device dev_;
  ConfigPort port_;
  Compiler compiler_;
  ConfigRegistry registry_{dev_};
};

// ---------------------------------------------------------- DynamicLoader

TEST_F(ManagerTest, DynamicLoaderFirstActivationDownloadsAndInits) {
  DynamicLoader dl(dev_, port_, registry_);
  ConfigId a = registerCounter(6, 5);
  auto cost = dl.activate(a, a);
  EXPECT_TRUE(cost.downloaded);
  EXPECT_GT(cost.downloadTime, 0u);
  EXPECT_EQ(cost.saveTime, 0u);  // nothing was resident
  EXPECT_EQ(dl.current(), a);
  EXPECT_TRUE(dev_.configOk());
  // Re-activation of the resident config is free (§3: "the most recently
  // configuration used by the task is adopted").
  auto again = dl.activate(a, a);
  EXPECT_EQ(again.total, 0u);
  EXPECT_FALSE(again.downloaded);
}

TEST_F(ManagerTest, DynamicLoaderOwnerSwitchChargesTheRegisterReset) {
  DynamicLoader dl(dev_, port_, registry_);
  ConfigId a = registerCounter(6, 5);
  ASSERT_FALSE(registry_.circuit(a).needsInitialState());
  ASSERT_TRUE(port_.spec().stateAccess);
  dl.activate(a, /*owner=*/1);
  const std::uint64_t writes = port_.stats().stateWrites;
  // A new owner of the resident circuit starts from its all-zero initial
  // values. No configuration is written, so the reset is a writeback.
  auto cost = dl.activate(a, /*owner=*/2, /*saveOutgoing=*/false);
  EXPECT_FALSE(cost.downloaded);
  EXPECT_GT(cost.restoreTime, 0u);
  EXPECT_EQ(cost.total, cost.restoreTime);
  EXPECT_EQ(port_.stats().stateWrites, writes + 1);
}

TEST_F(ManagerTest, DynamicLoaderPreservesStateAcrossSwitches) {
  DynamicLoader dl(dev_, port_, registry_);
  ConfigId a = registerCounter(6, 5);
  ConfigId b = registerChecksum(6, 5);
  dl.activate(a, a);
  {
    LoadedCircuit lc = dl.loaded();
    lc.setInput("en", true);
    lc.setInput("clr", false);
    for (int i = 0; i < 37; ++i) {
      lc.evaluate();
      lc.tick();
    }
  }
  auto toB = dl.activate(b, b);  // saves A's registers
  EXPECT_GT(toB.saveTime, 0u);
  EXPECT_EQ(dl.snapshots().count(a), 1u);
  auto backToA = dl.activate(a, a);
  EXPECT_TRUE(backToA.restoredSavedState);
  LoadedCircuit lc = dl.loaded();
  lc.setInput("en", true);
  lc.setInput("clr", false);
  lc.evaluate();
  EXPECT_EQ(lc.outputBus("q", 6), 37u);
}

TEST_F(ManagerTest, DynamicLoaderRollbackDiscardsState) {
  DynamicLoader dl(dev_, port_, registry_);
  ConfigId a = registerCounter(6, 5);
  ConfigId b = registerChecksum(6, 5);
  dl.activate(a, a);
  {
    LoadedCircuit lc = dl.loaded();
    lc.setInput("en", true);
    lc.setInput("clr", false);
    for (int i = 0; i < 5; ++i) {
      lc.evaluate();
      lc.tick();
    }
  }
  dl.activate(b, b, /*saveOutgoing=*/false);  // roll-back regime
  EXPECT_EQ(dl.snapshots().count(a), 0u);
  dl.activate(a, a);
  LoadedCircuit lc = dl.loaded();
  lc.evaluate();
  EXPECT_EQ(lc.outputBus("q", 6), 0u);  // restarted from initial state
}

TEST_F(ManagerTest, DynamicLoaderPartialPortBeatsSerialOnSwitch) {
  // Same two circuits; switch cost on a partial port must be well below a
  // serial-full port (the feasibility argument of §2).
  ConfigId a = registerCounter(6, 5);
  ConfigId b = registerChecksum(6, 5);

  DynamicLoader dlPartial(dev_, port_, registry_);
  dlPartial.activate(a, a);
  const SimDuration partialSwitch = dlPartial.activate(b, b).downloadTime;

  DeviceProfile serialProfile = mediumSerialProfile();
  Device dev2 = serialProfile.makeDevice();
  ConfigPort port2(dev2, serialProfile.port);
  DynamicLoader dlSerial(dev2, port2, registry_);
  dlSerial.activate(a, a);
  const SimDuration serialSwitch = dlSerial.activate(b, b).downloadTime;

  EXPECT_LT(partialSwitch, serialSwitch / 2);
}

// -------------------------------------------------------- PartitionManager

TEST_F(ManagerTest, PartitionsHostConcurrentFunctionalCircuits) {
  PartitionManager pm(dev_, port_, registry_, compiler_, {});
  ConfigId a = registerCounter(6, 4);
  ConfigId b = registerChecksum(6, 4);
  auto la = pm.load(a);
  auto lb = pm.load(b);
  ASSERT_TRUE(la && lb);
  EXPECT_NE(pm.circuitIn(la->partition).region.x0,
            pm.circuitIn(lb->partition).region.x0);
  ASSERT_TRUE(dev_.configOk()) << dev_.elaboration().faults.front();

  // Both circuits compute concurrently and independently.
  LoadedCircuit ca = pm.loaded(la->partition);
  LoadedCircuit cb = pm.loaded(lb->partition);
  ca.setInput("en", true);
  ca.setInput("clr", false);
  std::uint64_t model = 0;
  for (int i = 0; i < 10; ++i) {
    cb.setInputBus("d", 6, static_cast<std::uint64_t>(i));
    dev_.evaluate();
    dev_.tick();
    model = (model + static_cast<std::uint64_t>(i)) & 0x3F;
  }
  dev_.evaluate();
  EXPECT_EQ(ca.outputBus("q", 6), 10u);
  EXPECT_EQ(cb.outputBus("acc", 6), model);
}

TEST_F(ManagerTest, PartitionExhaustionThenRelease) {
  PartitionManager pm(dev_, port_, registry_, compiler_, {});
  ConfigId a = registerCounter(6, 5);
  ConfigId b = registerChecksum(6, 5);
  auto la = pm.load(a);
  auto lb = pm.load(b);
  ASSERT_TRUE(la && lb);
  ConfigId c = registerCounter(4, 5);
  EXPECT_FALSE(pm.load(c).has_value());  // 12 - 10 = 2 columns left
  pm.unload(la->partition);
  EXPECT_TRUE(pm.load(c).has_value());
}

TEST_F(ManagerTest, ReloadingAStripReusesTheRegistrysRelocatedCopy) {
  PartitionManager pm(dev_, port_, registry_, compiler_, {});
  ConfigId a = registerCounter(6, 4);
  ConfigId b = registerChecksum(6, 4);
  ASSERT_TRUE(pm.load(b));  // [0,4), so `a` has to move to column 4
  auto first = pm.load(a);
  ASSERT_TRUE(first);
  const CompiledCircuit* placed = &pm.circuitIn(first->partition);
  EXPECT_EQ(placed->region.x0, 4);
  pm.unload(first->partition);
  auto again = pm.load(a);
  ASSERT_TRUE(again);
  // Same strip, same object: the registry relocated `a` there once.
  EXPECT_EQ(&pm.circuitIn(again->partition), placed);
  EXPECT_EQ(&registry_.placed(a, 4, compiler_), placed);
  EXPECT_TRUE(dev_.configOk()) << dev_.elaboration().faults.front();
}

TEST_F(ManagerTest, GarbageCollectionRelocatesLiveState) {
  PartitionManager pm(dev_, port_, registry_, compiler_, {});
  ConfigId a = registerCounter(6, 4);  // [0,4)
  Netlist nlb = lib::makeCounter(6);
  nlb.setName("ctr6_second");
  ConfigId b2 = registry_.add(
      compiler_.compile(nlb, Region::columns(dev_.geometry(), 0, 4)));
  ConfigId wide = [&] {
    Netlist nl = lib::makeChecksum(6);
    nl.setName("ck_wide");
    return registry_.add(
        compiler_.compile(nl, Region::columns(dev_.geometry(), 0, 6)));
  }();

  auto la = pm.load(a);    // [0,4)
  auto lb = pm.load(b2);   // [4,8)
  ASSERT_TRUE(la && lb);
  // Run the middle circuit to accumulate state, then free the first strip.
  {
    LoadedCircuit lc = pm.loaded(lb->partition);
    lc.setInput("en", true);
    lc.setInput("clr", false);
    for (int i = 0; i < 29; ++i) {
      dev_.evaluate();
      dev_.tick();
    }
  }
  pm.unload(la->partition);
  // Free: [0,4) and [8,12) — 8 columns total but max hole 4. The 6-wide
  // circuit needs GC.
  auto lw = pm.load(wide);
  ASSERT_TRUE(lw.has_value());
  EXPECT_TRUE(lw->garbageCollected);
  EXPECT_GT(lw->gcCost, 0u);
  EXPECT_EQ(pm.garbageCollections(), 1u);
  EXPECT_GE(pm.relocations(), 1u);
  ASSERT_TRUE(dev_.configOk()) << dev_.elaboration().faults.front();

  // The moved counter kept its value and keeps counting.
  LoadedCircuit moved = pm.loaded(lb->partition);
  moved.setInput("en", true);
  moved.setInput("clr", false);
  dev_.evaluate();
  EXPECT_EQ(moved.outputBus("q", 6), 29u);
  dev_.tick();
  dev_.evaluate();
  EXPECT_EQ(moved.outputBus("q", 6), 30u);
}

TEST_F(ManagerTest, GcDisabledLeavesFragmentation) {
  PartitionManagerOptions opt;
  opt.garbageCollect = false;
  PartitionManager pm(dev_, port_, registry_, compiler_, opt);
  ConfigId a = registerCounter(6, 4);
  Netlist nlb = lib::makeCounter(6);
  nlb.setName("ctr6_b");
  ConfigId b = registry_.add(
      compiler_.compile(nlb, Region::columns(dev_.geometry(), 0, 4)));
  Netlist nlw = lib::makeChecksum(6);
  nlw.setName("ck_wide6");
  ConfigId wide = registry_.add(
      compiler_.compile(nlw, Region::columns(dev_.geometry(), 0, 6)));
  auto la = pm.load(a);
  auto lb = pm.load(b);
  pm.unload(la->partition);
  (void)lb;
  EXPECT_FALSE(pm.load(wide).has_value());  // starves without GC (§4)
  EXPECT_EQ(pm.garbageCollections(), 0u);
}

TEST_F(ManagerTest, FixedPartitionsBlankLeftoverColumns) {
  PartitionManagerOptions opt;
  opt.fixedWidths = {6, 6};
  PartitionManager pm(dev_, port_, registry_, compiler_, opt);
  ConfigId big = registerCounter(6, 5);
  auto l1 = pm.load(big);  // occupies a 6-wide fixed partition with w=5
  ASSERT_TRUE(l1);
  pm.unload(l1->partition);
  // A narrower circuit in the same partition: leftover columns of the
  // previous occupant must have been blanked, so the device still decodes.
  ConfigId small = registerChecksum(4, 3);
  auto l2 = pm.load(small);
  ASSERT_TRUE(l2);
  EXPECT_TRUE(dev_.configOk()) << dev_.elaboration().faults.front();
}

TEST_F(ManagerTest, NonRelocatableCircuitRejected) {
  PartitionManager pm(dev_, port_, registry_, compiler_, {});
  Netlist nl = lib::makeChecksum(4);
  nl.setName("pinned");
  CompileOptions opt;
  opt.relocatable = false;
  ConfigId id = registry_.add(
      compiler_.compile(nl, Region::columns(dev_.geometry(), 0, 4), opt));
  EXPECT_FALSE(pm.feasible(id));
  EXPECT_THROW(pm.load(id), std::logic_error);
}

// ---------------------------------------------------------- OverlayManager

TEST_F(ManagerTest, OverlayInvocationsHitAndMiss) {
  OverlayManager om(dev_, port_, compiler_, /*residentWidth=*/4);
  EXPECT_EQ(om.overlayWidth(), 8);
  Netlist common = lib::makeChecksum(6);
  common.setName("ov_common");
  om.installResident(
      compiler_.compile(common, Region::columns(dev_.geometry(), 0, 4)));

  Netlist f1 = lib::makeCounter(6);
  f1.setName("ov_f1");
  Netlist f2 = lib::makeLfsr(8, 0b10111000);
  f2.setName("ov_f2");
  OverlayId o1 = om.addOverlay(
      compiler_.compile(f1, Region::columns(dev_.geometry(), 0, 4)));
  OverlayId o2 = om.addOverlay(
      compiler_.compile(f2, Region::columns(dev_.geometry(), 0, 4)));

  auto r1 = om.invoke(o1);
  EXPECT_TRUE(r1.loaded);
  EXPECT_GT(r1.cost, 0u);
  EXPECT_TRUE(dev_.configOk()) << dev_.elaboration().faults.front();
  auto r1again = om.invoke(o1);
  EXPECT_FALSE(r1again.loaded);
  EXPECT_EQ(r1again.cost, 0u);
  auto r2 = om.invoke(o2);
  EXPECT_TRUE(r2.loaded);
  EXPECT_TRUE(dev_.configOk());
  EXPECT_EQ(om.invocations(), 3u);
  EXPECT_EQ(om.overlayLoads(), 2u);
  EXPECT_NEAR(om.hitRate(), 1.0 / 3.0, 1e-12);
}

TEST_F(ManagerTest, OverlaySwapPreservesResidentCircuitState) {
  OverlayManager om(dev_, port_, compiler_, 4);
  Netlist common = lib::makeCounter(6);
  common.setName("ov_ctr");
  om.installResident(
      compiler_.compile(common, Region::columns(dev_.geometry(), 0, 4)));
  Netlist f1 = lib::makeChecksum(6);
  f1.setName("ov_ck");
  Netlist f2 = lib::makeLfsr(8, 0b10111000);
  f2.setName("ov_lfsr");
  OverlayId o1 = om.addOverlay(
      compiler_.compile(f1, Region::columns(dev_.geometry(), 0, 4)));
  OverlayId o2 = om.addOverlay(
      compiler_.compile(f2, Region::columns(dev_.geometry(), 0, 4)));
  om.invoke(o1);

  LoadedCircuit ctr = om.resident();
  ctr.setInput("en", true);
  ctr.setInput("clr", false);
  for (int i = 0; i < 11; ++i) {
    dev_.evaluate();
    dev_.tick();
  }
  // Swapping the overlay must not disturb the resident strip's registers
  // (partial reconfiguration of disjoint frames).
  om.invoke(o2);
  ASSERT_TRUE(dev_.configOk());
  dev_.evaluate();
  EXPECT_EQ(ctr.outputBus("q", 6), 11u);
}

TEST_F(ManagerTest, OverlayRejectsOversizedCircuits) {
  OverlayManager om(dev_, port_, compiler_, 8);  // overlay area = 4
  Netlist big = lib::makeCounter(6);
  big.setName("ov_big");
  CompiledCircuit c =
      compiler_.compile(big, Region::columns(dev_.geometry(), 0, 5));
  EXPECT_THROW(om.addOverlay(c), std::invalid_argument);
  EXPECT_THROW(OverlayManager(dev_, port_, compiler_, 12),
               std::invalid_argument);
}

// ---------------------------------------------------------- SegmentManager

TEST_F(ManagerTest, SegmentFaultsLoadsAndEvicts) {
  SegmentManager sm(dev_, port_, compiler_, ReplacementPolicy::kLru);
  // Three 5-wide segments on a 12-column device: at most two resident.
  std::vector<SegmentId> segs;
  for (int i = 0; i < 3; ++i) {
    Netlist nl = lib::makeChecksum(4);
    nl.setName("seg" + std::to_string(i));
    segs.push_back(sm.addSegment(
        compiler_.compile(nl, Region::columns(dev_.geometry(), 0, 5))));
  }
  auto r0 = sm.access(segs[0]);
  EXPECT_TRUE(r0.fault);
  auto r0b = sm.access(segs[0]);
  EXPECT_FALSE(r0b.fault);
  sm.access(segs[1]);
  EXPECT_EQ(sm.residentCount(), 2u);
  auto r2 = sm.access(segs[2]);  // must evict one (LRU -> segs[0]? no: 0 was
                                 // reused after 1 loaded... order: 0,0,1,2)
  EXPECT_TRUE(r2.fault);
  EXPECT_GE(r2.evicted, 1u);
  EXPECT_TRUE(dev_.configOk()) << dev_.elaboration().faults.front();
  EXPECT_EQ(sm.faults(), 3u);
  EXPECT_EQ(sm.accesses(), 4u);
}

TEST_F(ManagerTest, SegmentLruKeepsHotSegmentResident) {
  SegmentManager sm(dev_, port_, compiler_, ReplacementPolicy::kLru);
  std::vector<SegmentId> segs;
  for (int i = 0; i < 3; ++i) {
    Netlist nl = lib::makeChecksum(4);
    nl.setName("lruseg" + std::to_string(i));
    segs.push_back(sm.addSegment(
        compiler_.compile(nl, Region::columns(dev_.geometry(), 0, 5))));
  }
  // Hot = segs[0]; alternate cold 1 / 2 between hot touches.
  sm.access(segs[0]);
  std::uint64_t hotFaults = 0;
  for (int i = 0; i < 6; ++i) {
    sm.access(segs[1 + (i % 2)]);
    const auto before = sm.faults();
    sm.access(segs[0]);
    hotFaults += sm.faults() - before;
  }
  EXPECT_EQ(hotFaults, 0u);  // LRU never evicts the hot segment
}

// A compaction moves a resident segment with its registers: one readback
// at the old columns, and one writeback, the install's resume at the new
// ones (not the init-1 lfsr's initial values followed by a restore).
TEST_F(ManagerTest, SegmentCompactionResumesRegistersWithOneWriteback) {
  SegmentManager sm(dev_, port_, compiler_, ReplacementPolicy::kLru);
  const auto add = [&](Netlist nl, const char* name, std::uint16_t w) {
    nl.setName(name);
    return sm.addSegment(
        compiler_.compile(nl, Region::columns(dev_.geometry(), 0, w)));
  };
  const SegmentId a = add(lib::makeChecksum(4), "a", 4);
  const SegmentId lfsr = add(lib::makeLfsr(8, 0b10111000), "lfsr", 4);
  const SegmentId b = add(lib::makeChecksum(4), "b", 4);
  const SegmentId wide = add(lib::makeChecksum(4), "wide", 8);
  for (const SegmentId id : {a, lfsr, b, lfsr}) sm.access(id);
  std::vector<bool> pattern = sm.loaded(lfsr).saveState();
  for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = i % 3 == 0;
  sm.loaded(lfsr).restoreState(pattern);
  // Evicting a and b leaves two 4-column holes around the lfsr.
  const auto before = port_.stats();
  ASSERT_EQ(sm.access(wide).evicted, 2u);
  EXPECT_EQ(port_.stats().stateReads - before.stateReads, 1u);
  EXPECT_EQ(port_.stats().stateWrites - before.stateWrites, 1u);
  EXPECT_EQ(sm.loaded(lfsr).saveState(), pattern);
}

// --------------------------------------------------- proven relocations

/// Turns invariant checks on for one scope, then restores the setting.
struct ChecksOn {
  ChecksOn() : was(analysis::invariantChecksEnabled()) {
    analysis::setInvariantChecks(true);
  }
  ~ChecksOn() { analysis::setInvariantChecks(was); }
  bool was;
};

/// `c` with two combinational LUT cells of different tables swapped between
/// their sites: the image still decodes, but computes something else.
CompiledCircuit withSwappedLuts(CompiledCircuit c) {
  const std::vector<MappedCell>& cells = c.mapped.cells;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (std::size_t j = i + 1; j < cells.size(); ++j) {
      if (cells[i].hasFf || cells[j].hasFf ||
          cells[i].lutTable == cells[j].lutTable) {
        continue;
      }
      std::swap(c.placement.sites[i], c.placement.sites[j]);
      return c;
    }
  }
  ADD_FAILURE() << c.name << ": no two combinational cells differ";
  return c;
}

// No OsKernel exists in this test: each manager proves its own relocations.
TEST_F(ManagerTest, EveryManagerRelocationIsProvenWithoutAKernel) {
  ChecksOn checks;
  Netlist nl = lib::makeChecksum(6);
  nl.setName("moved");
  // Compiled at column 2, so every manager below has to move it.
  const CompiledCircuit good =
      compiler_.compile(nl, Region::columns(dev_.geometry(), 2, 4));
  // Relocates `c` once through each manager path; returns how many of the
  // five relocations failed their proof.
  auto failedProofs = [&](const CompiledCircuit& c) {
    int failed = 0;
    auto expectProof = [&failed](auto&& relocating) {
      try {
        relocating();
      } catch (const analysis::InvariantViolation& v) {
        EXPECT_EQ(v.context(), "Compiler::relocate post-condition");
        ++failed;
      }
    };
    SegmentManager sm(dev_, port_, compiler_, ReplacementPolicy::kFifo);
    const SegmentId seg = sm.addSegment(c);
    expectProof([&] { sm.access(seg); });
    OverlayManager om(dev_, port_, compiler_, 4);
    expectProof([&] { om.installResident(c); });
    expectProof([&] { om.addOverlay(c); });
    ConfigRegistry reg(dev_);
    const ConfigId id = reg.add(c);
    PartitionManager pm(dev_, port_, reg, compiler_);
    expectProof([&] { pm.load(id); });
    // A refused relocation releases the strip it was granted.
    EXPECT_NO_THROW(pm.checkInvariants());
    PrefetchLoader pl(dev_, port_, reg, compiler_);
    expectProof([&] { pl.activate(id, 0); });
    return failed;
  };
  EXPECT_EQ(failedProofs(good), 0);
  EXPECT_EQ(failedProofs(withSwappedLuts(good)), 5);
}

// ------------------------------------------ column-range rewrite paths

/// One device of a profile with its port, compiler and registry.
struct Rig {
  explicit Rig(const DeviceProfile& p)
      : dev(p.makeDevice()), port(dev, p.port), compiler(dev) {}
  Device dev;
  ConfigPort port;
  Compiler compiler;
  ConfigRegistry registry{dev};

  CompiledCircuit compile(Netlist nl, const std::string& name,
                          std::uint16_t width) {
    nl.setName(name);
    CompileOptions opt;
    opt.seed = 7;
    return compiler.compile(nl, Region::columns(dev.geometry(), 0, width),
                            opt);
  }
};

/// FNV-1a over the configuration RAM, one value per bit.
std::uint64_t ramDigest(const Device& dev) {
  const ConfigImage& img = dev.image();
  std::uint64_t h = kFnvOffset;
  for (std::uint32_t b = 0; b < img.size(); ++b) {
    h = (h ^ (img.get(b) ? 1u : 0u)) * kFnvPrime;
  }
  return h;
}

/// Runs every manager path that rewrites a column range of the RAM and
/// returns one line per step: its cost and the RAM digest after it.
std::string columnRewriteTranscript(const DeviceProfile& prof) {
  std::ostringstream out;
  auto step = [&out](const std::string& what, SimDuration cost,
                     const Device& dev) {
    out << what << " cost=" << cost << " ram=" << std::hex << ramDigest(dev)
        << std::dec << "\n";
  };
  {  // Dynamic loading: whole-device switches, with state save/restore.
    Rig r(prof);
    const ConfigId a = r.registry.add(r.compile(lib::makeCounter(6), "a", 5));
    const ConfigId b =
        r.registry.add(r.compile(lib::makeChecksum(6), "b", 5));
    DynamicLoader dl(r.dev, r.port, r.registry);
    for (const ConfigId id : {a, b, a}) {
      step("dyn.activate " + std::to_string(id), dl.activate(id, id).total,
           r.dev);
    }
  }
  {  // Variable partitions: load, GC, unload, quarantine, heal, reload.
    Rig r(prof);
    const ConfigId a = r.registry.add(r.compile(lib::makeCounter(6), "a", 4));
    const ConfigId b =
        r.registry.add(r.compile(lib::makeChecksum(6), "b", 4));
    const ConfigId c = r.registry.add(r.compile(lib::makeCounter(4), "c", 4));
    const ConfigId d =
        r.registry.add(r.compile(lib::makeChecksum(4), "d", 5));
    PartitionManager pm(r.dev, r.port, r.registry, r.compiler);
    std::map<ConfigId, PartitionId> at;
    auto load = [&](ConfigId id) {
      const auto res = pm.load(id);
      ASSERT_TRUE(res) << "load " << id;
      at[id] = res->partition;
      step("part.load " + std::to_string(id) + " gc=" +
               std::to_string(res->garbageCollected),
           res->cost + res->gcCost, r.dev);
    };
    auto unload = [&](ConfigId id) {
      step("part.unload " + std::to_string(id), pm.unload(at.at(id)), r.dev);
    };
    load(a);
    load(b);
    load(c);
    unload(a);
    unload(c);
    load(d);  // fragmented: compaction relocates b
    unload(d);
    const auto q = pm.quarantine(1);  // evacuates b
    EXPECT_TRUE(q.quarantined && q.relocated);
    at[b] = q.movedTo;
    step("part.quarantine 1", q.cost, r.dev);
    load(a);
    unload(a);  // degraded device: the strip is blanked on release
    step("part.heal 1", pm.unquarantine(1), r.dev);
    load(a);
  }
  {  // Fixed partitions wider than the circuit: the remainder is blanked.
    Rig r(prof);
    const ConfigId a = r.registry.add(r.compile(lib::makeCounter(6), "a", 5));
    PartitionManagerOptions opt;
    opt.fixedWidths = {6, 6};
    PartitionManager pm(r.dev, r.port, r.registry, r.compiler, opt);
    const auto res = pm.load(a);
    EXPECT_TRUE(res);
    step("fixed.load", res ? res->cost : 0, r.dev);
  }
  for (const bool withResident : {true, false}) {  // Overlays.
    Rig r(prof);
    OverlayManager om(r.dev, r.port, r.compiler, 4);
    const std::string tag = withResident ? "ovl.res" : "ovl.bare";
    if (withResident) {
      step(tag + ".install",
           om.installResident(r.compile(lib::makeChecksum(6), "common", 4)),
           r.dev);
    }
    const OverlayId o1 = om.addOverlay(r.compile(lib::makeCounter(6), "f1", 4));
    const OverlayId o2 =
        om.addOverlay(r.compile(lib::makeLfsr(8, 0b10111000), "f2", 4));
    for (const OverlayId id : {o1, o2, o1}) {
      step(tag + ".invoke " + std::to_string(id), om.invoke(id).cost, r.dev);
    }
  }
  {  // An overlay without a resident leaves the low columns as intended.
    Rig r(prof);
    const CompiledCircuit seed = r.compile(lib::makeChecksum(6), "seed", 4);
    step("ovl.seeded.download",
         r.port.download(prof.port.partialReconfig ? seed.partialBitstream()
                                                   : seed.fullBitstream()),
         r.dev);
    OverlayManager om(r.dev, r.port, r.compiler, 4);
    const OverlayId o1 = om.addOverlay(r.compile(lib::makeCounter(6), "f1", 4));
    const OverlayId o2 =
        om.addOverlay(r.compile(lib::makeLfsr(8, 0b10111000), "f2", 4));
    for (const OverlayId id : {o1, o2, o1}) {
      step("ovl.seeded.invoke " + std::to_string(id), om.invoke(id).cost,
           r.dev);
    }
    const ConfigMap& map = r.dev.configMap();
    std::uint32_t changed = 0;
    for (const Frame& f : seed.partialBitstream().frames) {
      if (!frameHolds(r.dev.image(), map.frameBits(), f.id, f.payload)) {
        ++changed;
      }
    }
    EXPECT_EQ(changed, 0u) << "frames of columns [0, 3] the overlays rewrote";
  }
  if (prof.port.partialReconfig) {  // Prefetching needs a partial port.
    Rig r(prof);
    const ConfigId a = r.registry.add(r.compile(lib::makeCounter(6), "a", 4));
    const ConfigId b =
        r.registry.add(r.compile(lib::makeChecksum(6), "b", 4));
    const ConfigId c = r.registry.add(
        r.compile(lib::makeLfsr(8, 0b10111000), "c", 4));
    PrefetchLoader pl(r.dev, r.port, r.registry, r.compiler);
    SimTime now = 0;
    for (const ConfigId id : {a, b, c, a, b, c, a, c}) {
      const SimDuration stall = pl.activate(id, now).stall;
      step("pre.activate " + std::to_string(id), stall, r.dev);
      now += stall + millis(1);
    }
  }
  return out.str();
}

// Each step's cost and resulting RAM contents are pinned, so a change in
// how these paths build their bitstreams cannot move either unnoticed.
// Installing the LFSR (overlay 1, prefetched circuit 2) includes its
// initial-state writeback: 5 us overhead plus 8 bits at 500 ns.
TEST(ColumnRewritePaths, PinnedOnMediumPartial) {
  EXPECT_EQ(columnRewriteTranscript(mediumPartialProfile()), R"(dyn.activate 0 cost=2287600 ram=5783081c350a6fbf
dyn.activate 1 cost=4157600 ram=69bfe507414768cc
dyn.activate 0 cost=4165600 ram=5783081c350a6fbf
part.load 0 gc=0 cost=4043200 ram=32e309239d8b4175
part.load 1 gc=0 cost=3830400 ram=4066b250671a45cc
part.load 2 gc=0 cost=4362400 ram=e2f371b3276db965
part.unload 0 cost=0 ram=e2f371b3276db965
part.unload 2 cost=0 ram=e2f371b3276db965
part.load 3 gc=1 cost=12677600 ram=11900d641af68272
part.unload 3 cost=0 ram=11900d641af68272
part.quarantine 1 cost=16295200 ram=2f745c55ca2ea37c
part.load 0 gc=0 cost=4362400 ram=3bebb5ea6ac27360
part.unload 0 cost=4362400 ram=2f745c55ca2ea37c
part.heal 1 cost=957600 ram=2f745c55ca2ea37c
part.load 0 gc=0 cost=4043200 ram=4066b250671a45cc
fixed.load cost=5958400 ram=5783081c350a6fbf
ovl.res.install cost=4043200 ram=7d4d7ee102b5c038
ovl.res.invoke 0 cost=2128000 ram=41295a1f5446ff4e
ovl.res.invoke 1 cost=2137000 ram=b3092a2b64bbf719
ovl.res.invoke 0 cost=2128000 ram=41295a1f5446ff4e
ovl.bare.invoke 0 cost=2128000 ram=5e14d7eaaf0e600f
ovl.bare.invoke 1 cost=2137000 ram=ec3507de9e996844
ovl.bare.invoke 0 cost=2128000 ram=5e14d7eaaf0e600f
ovl.seeded.download cost=4043200 ram=7d4d7ee102b5c038
ovl.seeded.invoke 0 cost=2128000 ram=41295a1f5446ff4e
ovl.seeded.invoke 1 cost=2137000 ram=b3092a2b64bbf719
ovl.seeded.invoke 0 cost=2128000 ram=41295a1f5446ff4e
pre.activate 0 cost=2128000 ram=d2781da075d8900f
pre.activate 1 cost=2872800 ram=ccc614698d7ccf4e
pre.activate 2 cost=2137000 ram=db4b6df8fd3aaf19
pre.activate 0 cost=3351600 ram=dbf9813f7e03cdcc
pre.activate 1 cost=2458000 ram=447a195baee48921
pre.activate 2 cost=1030600 ram=3d0927001a24248e
pre.activate 0 cost=2511200 ram=ccc614698d7ccf4e
pre.activate 2 cost=5605800 ram=3d0927001a24248e
)");
}

TEST(ColumnRewritePaths, PinnedOnMediumSerial) {
  EXPECT_EQ(columnRewriteTranscript(mediumSerialProfile()), R"(dyn.activate 0 cost=11876000 ram=5783081c350a6fbf
dyn.activate 1 cost=11884000 ram=69bfe507414768cc
dyn.activate 0 cost=11892000 ram=5783081c350a6fbf
part.load 0 gc=0 cost=11876000 ram=32e309239d8b4175
part.load 1 gc=0 cost=11876000 ram=4066b250671a45cc
part.load 2 gc=0 cost=11876000 ram=e2f371b3276db965
part.unload 0 cost=0 ram=e2f371b3276db965
part.unload 2 cost=0 ram=e2f371b3276db965
part.load 3 gc=1 cost=35644000 ram=11900d641af68272
part.unload 3 cost=0 ram=11900d641af68272
part.quarantine 1 cost=71272000 ram=2f745c55ca2ea37c
part.load 0 gc=0 cost=11876000 ram=3bebb5ea6ac27360
part.unload 0 cost=11876000 ram=2f745c55ca2ea37c
part.heal 1 cost=11876000 ram=2f745c55ca2ea37c
part.load 0 gc=0 cost=11876000 ram=4066b250671a45cc
fixed.load cost=23752000 ram=5783081c350a6fbf
ovl.res.install cost=11876000 ram=7d4d7ee102b5c038
ovl.res.invoke 0 cost=11876000 ram=41295a1f5446ff4e
ovl.res.invoke 1 cost=11885000 ram=b3092a2b64bbf719
ovl.res.invoke 0 cost=11876000 ram=41295a1f5446ff4e
ovl.bare.invoke 0 cost=11876000 ram=5e14d7eaaf0e600f
ovl.bare.invoke 1 cost=11885000 ram=ec3507de9e996844
ovl.bare.invoke 0 cost=11876000 ram=5e14d7eaaf0e600f
ovl.seeded.download cost=11876000 ram=7d4d7ee102b5c038
ovl.seeded.invoke 0 cost=11876000 ram=41295a1f5446ff4e
ovl.seeded.invoke 1 cost=11885000 ram=b3092a2b64bbf719
ovl.seeded.invoke 0 cost=11876000 ram=41295a1f5446ff4e
)");
}

// An upset in the resident strip never reaches the port's golden image
// through an overlay swap, so scrubbing still restores the intended bit.
// A partial swap leaves the upset in the RAM for the scrubber to find; a
// serial swap rewrites the whole device from the golden image, which
// overwrites it.
TEST(ColumnRewritePaths, OverlaySwapKeepsResidentUpsetOutOfGoldenImage) {
  for (const DeviceProfile& prof :
       {mediumPartialProfile(), mediumSerialProfile()}) {
    SCOPED_TRACE(prof.name);
    Rig r(prof);
    OverlayManager om(r.dev, r.port, r.compiler, 4);
    om.installResident(r.compile(lib::makeChecksum(6), "common", 4));
    const OverlayId o1 = om.addOverlay(r.compile(lib::makeCounter(6), "f1", 4));
    const OverlayId o2 =
        om.addOverlay(r.compile(lib::makeLfsr(8, 0b10111000), "f2", 4));
    om.invoke(o1);
    const std::uint32_t bit = r.dev.configMap().clbLutBit(0, 0, 0);
    const bool intended = r.dev.image().get(bit);
    r.dev.setConfigBit(bit, !intended);  // behind the port's back
    EXPECT_TRUE(om.invoke(o2).loaded);
    EXPECT_EQ(r.port.expectedImage().get(bit), intended);
    const bool partial = prof.port.partialReconfig;
    EXPECT_EQ(r.dev.image().get(bit), partial ? !intended : intended);
    EXPECT_EQ(r.port.scrub().repairedFrames, partial ? 1u : 0u);
    EXPECT_EQ(r.dev.image().get(bit), intended);
  }
}

// Reinstalling the resident rewrites only the resident strip: the active
// overlay stays configured, so the hit the next invoke reports is real.
TEST(ColumnRewritePaths, ReinstallingTheResidentKeepsTheActiveOverlay) {
  for (const DeviceProfile& prof :
       {mediumPartialProfile(), mediumSerialProfile()}) {
    SCOPED_TRACE(prof.name);
    Rig r(prof);
    OverlayManager om(r.dev, r.port, r.compiler, 4);
    const CompiledCircuit common =
        r.compile(lib::makeChecksum(6), "common", 4);
    om.installResident(common);
    const OverlayId o1 = om.addOverlay(r.compile(lib::makeCounter(6), "f1", 4));
    om.invoke(o1);
    const ConfigImage before = r.dev.image();
    om.installResident(common);
    std::uint32_t changed = 0;
    for (std::uint32_t b = 0; b < before.size(); ++b) {
      changed += r.dev.image().get(b) != before.get(b) ? 1 : 0;
    }
    EXPECT_EQ(changed, 0u) << "bits the reinstall changed";
    EXPECT_FALSE(om.invoke(o1).loaded);
  }
}

// ------------------------------------------------------ install contract

/// Watches one rig's installs: after each, the circuit's registers hold
/// its initial values, and the port charged one state writeback iff the
/// circuit needs initial state (some value is 1) and the port has state
/// access. Then scribbles the complement into those registers, so a later
/// install onto the same sites that skipped the initial values shows.
struct InstallWatch {
  explicit InstallWatch(Rig& rig)
      : r(rig), writes(rig.port.stats().stateWrites) {}

  void installed(LoadedCircuit lc, const std::string& what) {
    SCOPED_TRACE(what);
    const CompiledCircuit& c = lc.circuit();
    EXPECT_EQ(lc.saveState(), c.initialState);
    const bool charged = c.needsInitialState() && r.port.spec().stateAccess;
    EXPECT_EQ(r.port.stats().stateWrites, writes + (charged ? 1 : 0));
    writes = r.port.stats().stateWrites;
    std::vector<bool> scribbled = c.initialState;
    scribbled.flip();
    for (std::size_t i = 0; i < c.ffSites.size(); ++i) {
      r.dev.setFfStateAt(c.ffSites[i].x, c.ffSites[i].y, scribbled[i]);
    }
    EXPECT_EQ(lc.saveState(), scribbled);
  }

  Rig& r;
  std::uint64_t writes;
};

/// Three 4-wide circuits: two that start from ones, one from zeros.
std::vector<CompiledCircuit> installCircuits(Rig& r) {
  std::vector<CompiledCircuit> v;
  v.push_back(r.compile(lib::makeLfsr(8, 0b10111000), "lfsr_a", 4));
  v.push_back(r.compile(lib::makeCounter(6), "ctr", 4));
  v.push_back(r.compile(lib::makeLfsr(6, 0b110000), "lfsr_b", 4));
  EXPECT_TRUE(v[0].needsInitialState() && v[2].needsInitialState());
  EXPECT_FALSE(v[1].needsInitialState());
  return v;
}

TEST(InstallContract, EveryManagerStartsACircuitFromItsInitialValues) {
  DeviceProfile noReadback = mediumPartialProfile();
  noReadback.port.stateAccess = false;
  noReadback.name += " without state access";
  for (const DeviceProfile& prof :
       {mediumPartialProfile(), mediumSerialProfile(), noReadback}) {
    SCOPED_TRACE(prof.name);
    const bool partial = prof.port.partialReconfig;
    {  // Dynamic loading with roll-back: every activation starts afresh.
      Rig r(prof);
      std::vector<ConfigId> ids;
      for (CompiledCircuit& c : installCircuits(r)) {
        ids.push_back(r.registry.add(std::move(c)));
      }
      DynamicLoader dl(r.dev, r.port, r.registry);
      InstallWatch w(r);
      for (const ConfigId id : {ids[0], ids[1], ids[2], ids[0]}) {
        dl.activate(id, id, /*saveOutgoing=*/false);
        w.installed(dl.loaded(), "dyn " + std::to_string(id));
      }
    }
    {  // Partitions: load, release, load again into the same strip.
      Rig r(prof);
      std::vector<ConfigId> ids;
      for (CompiledCircuit& c : installCircuits(r)) {
        ids.push_back(r.registry.add(std::move(c)));
      }
      PartitionManager pm(r.dev, r.port, r.registry, r.compiler);
      InstallWatch w(r);
      std::vector<PartitionId> at;
      for (const ConfigId id : ids) {
        at.push_back(pm.load(id)->partition);
        w.installed(pm.loaded(at.back()), "part " + std::to_string(id));
      }
      pm.unload(at[0]);
      const PartitionId again = pm.load(ids[0])->partition;
      w.installed(pm.loaded(again), "part reload");
    }
    {  // Overlays beside a resident, swapped back and forth.
      Rig r(prof);
      const std::vector<CompiledCircuit> cs = installCircuits(r);
      OverlayManager om(r.dev, r.port, r.compiler, 4);
      InstallWatch w(r);
      om.installResident(cs[0]);
      w.installed(om.resident(), "resident");
      const OverlayId o1 = om.addOverlay(cs[1]);
      const OverlayId o2 = om.addOverlay(cs[2]);
      for (const OverlayId id : {o1, o2, o1, o2}) {
        ASSERT_TRUE(om.invoke(id).loaded);
        w.installed(om.activeOverlay(), "overlay " + std::to_string(id));
      }
    }
    if (!partial) continue;  // segments and prefetch need a partial port
    {  // Segments: the fourth faults one out, the first faults back in.
      Rig r(prof);
      SegmentManager sm(r.dev, r.port, r.compiler, ReplacementPolicy::kFifo);
      std::vector<SegmentId> segs;
      for (const CompiledCircuit& c : installCircuits(r)) {
        segs.push_back(sm.addSegment(c));
      }
      segs.push_back(
          sm.addSegment(r.compile(lib::makeLfsr(7, 0b1100000), "lfsr_c", 4)));
      InstallWatch w(r);
      for (const SegmentId id : {segs[0], segs[1], segs[2], segs[3], segs[0]}) {
        ASSERT_TRUE(sm.access(id).fault);
        w.installed(sm.loaded(id), "segment " + std::to_string(id));
      }
    }
    {  // Prefetch: first visits, so each activation is one demand load.
      Rig r(prof);
      std::vector<ConfigId> ids;
      for (CompiledCircuit& c : installCircuits(r)) {
        ids.push_back(r.registry.add(std::move(c)));
      }
      PrefetchLoader pl(r.dev, r.port, r.registry, r.compiler);
      InstallWatch w(r);
      SimTime now = 0;
      for (const ConfigId id : ids) {
        now += pl.activate(id, now).stall + millis(1);
        w.installed(pl.loaded(), "prefetch " + std::to_string(id));
      }
    }
  }
}

}  // namespace
}  // namespace vfpga
