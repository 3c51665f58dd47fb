// PrefetchLoader: double-buffered speculative configuration loading.
#include <gtest/gtest.h>

#include "core/dynamic_loader.hpp"
#include "core/prefetch_loader.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/coding.hpp"
#include "netlist/library/control.hpp"
#include "netlist/library/datapath.hpp"

namespace vfpga {
namespace {

class PrefetchTest : public ::testing::Test {
 protected:
  PrefetchTest()
      : profile_(mediumPartialProfile()), dev_(profile_.makeDevice()),
        port_(dev_, profile_.port), compiler_(dev_) {}

  ConfigId addCircuit(const std::string& name, int which) {
    Netlist nl = (which == 0)   ? lib::makeCounter(6)
                 : (which == 1) ? lib::makeChecksum(6)
                                : lib::makeLfsr(8, 0b10111000);
    nl.setName(name);
    return registry_.add(compiler_.compile(
        nl, Region::columns(dev_.geometry(), 0, 4)));
  }

  DeviceProfile profile_;
  Device dev_;
  ConfigPort port_;
  Compiler compiler_;
  ConfigRegistry registry_{dev_};
};

TEST_F(PrefetchTest, LearnsAlternationAndHidesDownloads) {
  PrefetchLoader loader(dev_, port_, registry_, compiler_);
  ConfigId a = addCircuit("a", 0);
  ConfigId b = addCircuit("b", 1);
  SimTime now = 0;
  const SimDuration bigGap = millis(50);  // plenty to hide any download
  // Warm-up: first A->B->A transitions are misses.
  for (int i = 0; i < 4; ++i) {
    loader.activate(i % 2 ? b : a, now);
    now += bigGap;
  }
  // Once the A<->B alternation is learned, switches are free.
  for (int i = 0; i < 10; ++i) {
    auto r = loader.activate(i % 2 ? b : a, now);
    EXPECT_TRUE(r.predicted) << "switch " << i;
    EXPECT_EQ(r.stall, 0u) << "switch " << i;
    now += bigGap;
  }
  EXPECT_GT(loader.hitRate(), 0.7);
}

TEST_F(PrefetchTest, ShortGapsPayResidualStall) {
  // Three configurations rotating: the shadow half must genuinely be
  // rewritten on every prefetch (with only two, both halves end up caching
  // their circuit and background downloads become no-ops).
  PrefetchLoader loader(dev_, port_, registry_, compiler_);
  const ConfigId cfg[3] = {addCircuit("a", 0), addCircuit("b", 1),
                           addCircuit("c", 2)};
  SimTime now = 0;
  for (int i = 0; i < 9; ++i) {  // learn the rotation with generous gaps
    loader.activate(cfg[i % 3], now);
    now += millis(50);
  }
  // Switch almost immediately: the (correctly) predicted download cannot
  // have finished, so the switch stalls for its remainder — but strictly
  // less than a full demand load.
  auto r = loader.activate(cfg[0 % 3], now);
  now += r.stall + micros(10);
  auto quick = loader.activate(cfg[1], now);
  EXPECT_TRUE(quick.predicted);
  EXPECT_GT(quick.stall, 0u);
  // A full demand load of the same circuit costs more than the residue.
  DynamicLoader demand(dev_, port_, registry_);
  // (cost query only — compare against a fresh full-strip download time)
  const SimDuration fullLoad =
      port_.downloadCost(registry_.circuit(cfg[1]).partialBitstream());
  EXPECT_LT(quick.stall, fullLoad + millis(1));
}

TEST_F(PrefetchTest, MissFallsBackToDemandLoad) {
  PrefetchLoader loader(dev_, port_, registry_, compiler_);
  ConfigId a = addCircuit("a", 0);
  ConfigId b = addCircuit("b", 1);
  ConfigId c = addCircuit("c", 2);
  SimTime now = 0;
  loader.activate(a, now);
  now += millis(50);
  loader.activate(b, now);  // learns a->b
  now += millis(50);
  loader.activate(a, now);
  now += millis(50);
  auto r = loader.activate(c, now);  // predicted b, asked for c
  EXPECT_FALSE(r.predicted);
  EXPECT_GT(r.stall, 0u);
  EXPECT_GE(loader.misses(), 1u);
  EXPECT_EQ(loader.active(), c);
}

TEST_F(PrefetchTest, ActiveCircuitComputesCorrectlyAfterFlips) {
  PrefetchLoader loader(dev_, port_, registry_, compiler_);
  ConfigId ctr = addCircuit("ctr", 0);
  ConfigId ck = addCircuit("ck", 1);
  SimTime now = 0;
  std::uint64_t expected = 0;
  for (int round = 0; round < 4; ++round) {
    auto r1 = loader.activate(ctr, now);
    now += r1.stall + millis(10);
    ASSERT_TRUE(dev_.configOk()) << dev_.elaboration().faults.front();
    LoadedCircuit lc = loader.loaded();
    lc.applyInitialState();  // prefetched circuits start fresh
    lc.setInput("en", true);
    lc.setInput("clr", false);
    for (int i = 0; i < 5; ++i) {
      lc.evaluate();
      lc.tick();
    }
    lc.evaluate();
    expected = 5;  // fresh start each residency
    EXPECT_EQ(lc.outputBus("q", 6), expected);

    auto r2 = loader.activate(ck, now);
    now += r2.stall + millis(10);
    ASSERT_TRUE(dev_.configOk());
  }
}

TEST_F(PrefetchTest, RejectsBadConfigurationsAndPorts) {
  PrefetchLoader loader(dev_, port_, registry_, compiler_);
  // Wider than half the device.
  Netlist wide = lib::makeChecksum(6);
  wide.setName("wide7");
  ConfigId w = registry_.add(compiler_.compile(
      wide, Region::columns(dev_.geometry(), 0, 7)));
  EXPECT_THROW(loader.activate(w, 0), std::invalid_argument);

  // Serial-full port cannot prefetch.
  DeviceProfile serial = mediumSerialProfile();
  Device dev2 = serial.makeDevice();
  ConfigPort port2(dev2, serial.port);
  Compiler compiler2(dev2);
  EXPECT_THROW(PrefetchLoader(dev2, port2, registry_, compiler2),
               std::invalid_argument);
}

TEST_F(PrefetchTest, TimeMustBeMonotonic) {
  PrefetchLoader loader(dev_, port_, registry_, compiler_);
  ConfigId a = addCircuit("a", 0);
  ConfigId b = addCircuit("b", 1);
  loader.activate(a, millis(10));
  EXPECT_THROW(loader.activate(b, millis(5)), std::logic_error);
}

}  // namespace
}  // namespace vfpga
