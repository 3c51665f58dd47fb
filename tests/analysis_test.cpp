// Design-rule checker: every verifier must (a) stay silent on a genuine
// compiled flow and (b) flag a deliberately seeded defect with the exact
// rule ID the registry documents. Defects are injected into *value-level*
// snapshots (corrupted copies of real compiler output, hand-built strip
// tables / page tables / task control blocks), never by breaking the
// encapsulated managers — the same verifier code backs their
// VFPGA_CHECK_INVARIANTS hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "analysis/diagnostics.hpp"
#include "analysis/flow_lint.hpp"
#include "analysis/kernel_check.hpp"
#include "analysis/netlist_lint.hpp"
#include "core/page_manager.hpp"
#include "core/partition_manager.hpp"
#include "core/strip_allocator.hpp"
#include "fabric/device_family.hpp"
#include "netlist/library/control.hpp"
#include "netlist/optimize.hpp"
#include "workloads/compile_suite.hpp"

namespace vfpga {
namespace {

using analysis::Report;

bool hasRule(const Report& rep, std::string_view id) {
  const auto& ds = rep.diagnostics();
  return std::any_of(ds.begin(), ds.end(),
                     [&](const auto& d) { return d.rule == id; });
}

// ------------------------------------------------------------ rule registry

TEST(Diagnostics, RegistryHasStableRuleIds) {
  const auto rules = analysis::allRules();
  EXPECT_GE(rules.size(), 41u);
  for (const char* id : {"NL001", "MP003", "PL001", "RT002", "BS002", "PT001",
                         "AL001", "PG004", "OV002", "PM001", "TS003", "SG002"}) {
    EXPECT_NE(analysis::findRule(id), nullptr) << id;
  }
  EXPECT_EQ(analysis::findRule("ZZ999"), nullptr);
}

TEST(Diagnostics, UnregisteredRuleIdBecomesError) {
  Report rep;
  rep.add("ZZ999", "mystery");
  EXPECT_EQ(rep.errorCount(), 1u);
  EXPECT_FALSE(rep.ok());
}

TEST(Diagnostics, ThrowIfErrorsRaisesInvariantViolation) {
  Report rep;
  rep.add("NL006", "unused input");  // a warning ahead of the errors
  rep.add("AL002", "seeded");
  rep.add("AL003", "seeded too");
  try {
    analysis::throwIfErrors(rep, "test");
    ADD_FAILURE() << "no InvariantViolation";
  } catch (const analysis::InvariantViolation& v) {
    // What a post-mortem dump needs travels with the exception.
    EXPECT_EQ(v.rule(), "AL002");
    EXPECT_EQ(v.context(), "test");
    EXPECT_EQ(v.reportJson(), rep.renderJson());
    EXPECT_EQ(std::string(v.what()),
              "invariant violation in test:\n" + rep.renderText());
  }
  Report warnOnly;
  warnOnly.add("NL006", "unused input");  // warning severity: must not throw
  EXPECT_NO_THROW(analysis::throwIfErrors(warnOnly, "test"));
}

TEST(Diagnostics, RenderersIncludeRuleAndCounts) {
  Report rep;
  rep.add("NL002", "bad \"arity\"");
  EXPECT_NE(rep.renderText().find("NL002"), std::string::npos);
  const std::string json = rep.renderJson();
  EXPECT_NE(json.find("\"rule\":\"NL002\""), std::string::npos);
  EXPECT_NE(json.find("\\\"arity\\\""), std::string::npos);  // escaped quote
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos);
}

// ------------------------------------------------------------- netlist lint

TEST(NetlistLint, CleanCircuitHasNoDiagnostics) {
  Report rep;
  analysis::lintNetlist(optimize(lib::makeCounter(6)), rep);
  EXPECT_TRUE(rep.clean()) << rep.renderText();
}

TEST(NetlistLint, UnusedInputWarnsNL006) {
  Netlist nl("t");
  nl.addInput("used");
  nl.addInput("unused");
  nl.addOutput("o", nl.addGate(GateKind::kNot, {0}));
  Report rep;
  analysis::lintNetlist(nl, rep);
  EXPECT_TRUE(hasRule(rep, "NL006")) << rep.renderText();
}

TEST(NetlistLint, DeadGateWarnsNL007) {
  Netlist nl("t");
  const GateId a = nl.addInput("a");
  nl.addGate(GateKind::kNot, {a}, "orphan");  // never reaches an output
  nl.addOutput("o", nl.addGate(GateKind::kBuf, {a}));
  Report rep;
  analysis::lintNetlist(nl, rep);
  EXPECT_TRUE(hasRule(rep, "NL007")) << rep.renderText();
}

TEST(NetlistLint, StaticOutputWarnsNL008) {
  Netlist nl("t");
  nl.addInput("a");
  nl.addOutput("o", nl.constant(true));
  Report rep;
  analysis::lintNetlist(nl, rep);
  EXPECT_TRUE(hasRule(rep, "NL008")) << rep.renderText();
}

TEST(NetlistLint, StaticDffConeWarnsNL009) {
  Netlist nl("t");
  nl.addInput("a");
  const GateId d = nl.addDff(nl.constant(false), false, "frozen");
  nl.addOutput("o", d);
  Report rep;
  analysis::lintNetlist(nl, rep);
  EXPECT_TRUE(hasRule(rep, "NL009")) << rep.renderText();
}

// ------------------------------------------------------- mapped-stage lint

TEST(FlowLint, MappedCombCycleFlagsMP003WithPath) {
  MappedNetlist m;
  m.k = 4;
  m.inputs.push_back({"a", 0});
  // Cells 0 and 1 (nets 1 and 2) read each other; neither is registered.
  m.cells.push_back({0x6, {2, 0}, false, false, "u"});
  m.cells.push_back({0x6, {1, 0}, false, false, "v"});
  m.outputs.push_back({"o", m.cellNet(0)});
  Report rep;
  analysis::lintMapped(m, rep);
  ASSERT_TRUE(hasRule(rep, "MP003")) << rep.renderText();
  EXPECT_FALSE(rep.diagnostics()[0].notes.empty());  // cycle path reported
}

TEST(FlowLint, RegisteredCellBreaksTheLoop) {
  MappedNetlist m;
  m.k = 4;
  m.inputs.push_back({"a", 0});
  m.cells.push_back({0x6, {2, 0}, false, false, "u"});
  m.cells.push_back({0x6, {1, 0}, true, false, "v"});  // FF breaks the cycle
  m.outputs.push_back({"o", m.cellNet(0)});
  Report rep;
  analysis::lintMapped(m, rep);
  EXPECT_TRUE(rep.clean()) << rep.renderText();
}

TEST(FlowLint, LutOverCapacityFlagsMP001) {
  MappedNetlist m;
  m.k = 2;
  m.inputs.push_back({"a", 0});
  m.cells.push_back({0xff, {0, 0, 0}, false, false, "fat"});
  m.outputs.push_back({"o", m.cellNet(0)});
  Report rep;
  analysis::lintMapped(m, rep);
  EXPECT_TRUE(hasRule(rep, "MP001")) << rep.renderText();
}

TEST(FlowLint, DanglingNetFlagsMP002AndMP004) {
  MappedNetlist m;
  m.k = 4;
  m.inputs.push_back({"a", 0});
  m.cells.push_back({0x1, {99}, false, false, "bad"});
  m.outputs.push_back({"o", kNoNet});
  Report rep;
  analysis::lintMapped(m, rep);
  EXPECT_TRUE(hasRule(rep, "MP002")) << rep.renderText();
  EXPECT_TRUE(hasRule(rep, "MP004")) << rep.renderText();
}

// -------------------------------------------- compiled-flow seeded defects

/// Compiles one real circuit on the medium partial-reconfiguration device;
/// each test corrupts its own copy.
class CompiledDefects : public ::testing::Test {
 protected:
  CompiledDefects()
      : profile_(mediumPartialProfile()), dev_(profile_.makeDevice()),
        compiler_(dev_) {
    circuit_ = workloads::compileMinimal(compiler_, optimize(lib::makeCounter(6)));
  }

  Report lintIt(const CompiledCircuit& c) const {
    Report rep;
    analysis::lintCompiled(c, dev_.rrg(), dev_.configMap(), rep);
    return rep;
  }

  DeviceProfile profile_;
  Device dev_;
  Compiler compiler_;
  CompiledCircuit circuit_;
};

TEST_F(CompiledDefects, GenuineFlowIsClean) {
  const Report rep = lintIt(circuit_);
  EXPECT_TRUE(rep.clean()) << rep.renderText();
}

TEST_F(CompiledDefects, PlacementOverlapFlagsPL001) {
  CompiledCircuit c = circuit_;
  ASSERT_GE(c.placement.sites.size(), 2u);
  c.placement.sites[1] = c.placement.sites[0];
  EXPECT_TRUE(hasRule(lintIt(c), "PL001"));
}

TEST_F(CompiledDefects, PlacementEscapeFlagsPL002) {
  CompiledCircuit c = circuit_;
  ASSERT_FALSE(c.placement.sites.empty());
  c.placement.sites[0].x =
      static_cast<std::uint16_t>(c.placement.region.x1() + 1);
  EXPECT_TRUE(hasRule(lintIt(c), "PL002"));
}

TEST_F(CompiledDefects, SiteCountMismatchFlagsPL003) {
  CompiledCircuit c = circuit_;
  c.placement.sites.pop_back();
  EXPECT_TRUE(hasRule(lintIt(c), "PL003"));
}

TEST_F(CompiledDefects, SharedRoutingNodeFlagsRT001) {
  CompiledCircuit c = circuit_;
  ASSERT_GE(c.routes.nets.size(), 2u);
  ASSERT_FALSE(c.routes.nets[0].nodes.empty());
  c.routes.nets[1].nodes.push_back(c.routes.nets[0].nodes[0]);
  EXPECT_TRUE(hasRule(lintIt(c), "RT001"));
}

TEST_F(CompiledDefects, RouteOutsideStripFlagsRT002) {
  CompiledCircuit c = circuit_;
  ASSERT_FALSE(c.routes.nets.empty());
  // Find a routing node owned by a column beyond the strip: the violation a
  // partitioned OS must never allow (cross-partition wire use).
  RRNodeId intruder = kNoRRNode;
  const RoutingGraph& rrg = dev_.rrg();
  for (RRNodeId n = 0; n < rrg.nodeCount(); ++n) {
    if (rrg.ownerColumn(n) > c.region.x1()) {
      intruder = n;
      break;
    }
  }
  ASSERT_NE(intruder, kNoRRNode) << "device has no column beyond the strip";
  c.routes.nets[0].nodes.push_back(intruder);
  EXPECT_TRUE(hasRule(lintIt(c), "RT002"));
}

TEST_F(CompiledDefects, PhantomSwitchFlagsRT003) {
  CompiledCircuit c = circuit_;
  ASSERT_FALSE(c.routes.nets.empty());
  c.routes.nets[0].edges.push_back(
      static_cast<RREdgeId>(dev_.rrg().edgeCount()));
  EXPECT_TRUE(hasRule(lintIt(c), "RT003"));
}

TEST_F(CompiledDefects, FrameOutOfDeviceFlagsBS001) {
  CompiledCircuit c = circuit_;
  const ConfigMap& cmap = dev_.configMap();
  c.bitstream.frames.push_back(Frame{
      cmap.frameCount(), std::vector<std::uint8_t>(cmap.frameBits(), 0)});
  c.bitstream.sealCrc();
  EXPECT_TRUE(hasRule(lintIt(c), "BS001"));
}

TEST_F(CompiledDefects, BitOutsideRegionFlagsBS002) {
  CompiledCircuit c = circuit_;
  const ConfigMap& cmap = dev_.configMap();
  const auto [first, last] = cmap.framesOfColumns(c.region.x0, c.region.x1());
  // A set bit in a frame the circuit's columns do not own.
  const std::uint32_t foreignFrame = last < cmap.frameCount() ? last : 0;
  ASSERT_TRUE(foreignFrame < first || foreignFrame >= last);
  c.bitstream.frames.push_back(
      Frame{foreignFrame,
            std::vector<std::uint8_t>(payloadBytes(cmap.frameBits()), 0)});
  c.bitstream.frames.back().setBit(0, true);
  c.bitstream.sealCrc();
  EXPECT_TRUE(hasRule(lintIt(c), "BS002"));
}

TEST_F(CompiledDefects, TruncatedFrameFlagsBS003) {
  CompiledCircuit c = circuit_;
  ASSERT_FALSE(c.bitstream.frames.empty());
  c.bitstream.frames[0].payload.pop_back();
  c.bitstream.sealCrc();
  EXPECT_TRUE(hasRule(lintIt(c), "BS003"));
}

TEST_F(CompiledDefects, PadSlotOutOfRangeFlagsPT001) {
  CompiledCircuit c = circuit_;
  ASSERT_FALSE(c.ports.empty());
  c.ports[0].padSlot =
      static_cast<std::uint32_t>(dev_.geometry().padSlotCount());
  EXPECT_TRUE(hasRule(lintIt(c), "PT001"));
}

// ------------------------------------------------- OS bookkeeping defects

TEST(KernelCheck, StripGapFlagsAL001) {
  const std::vector<Strip> strips{{0, 0, 4, true}, {1, 6, 6, true}};
  Report rep;
  analysis::verifyStrips(strips, 12, false, rep);
  EXPECT_TRUE(hasRule(rep, "AL001")) << rep.renderText();
}

TEST(KernelCheck, StripDefectsFlagAL002ToAL004) {
  // Zero width, duplicate id, and two adjacent idle strips left unmerged.
  const std::vector<Strip> strips{
      {0, 0, 4, false}, {0, 4, 0, false}, {2, 4, 8, false}};
  Report rep;
  analysis::verifyStrips(strips, 12, false, rep);
  EXPECT_TRUE(hasRule(rep, "AL002"));
  EXPECT_TRUE(hasRule(rep, "AL003"));
  EXPECT_TRUE(hasRule(rep, "AL004"));
}

TEST(KernelCheck, FixedModeToleratesAdjacentIdleStrips) {
  const std::vector<Strip> strips{{0, 0, 6, false}, {1, 6, 6, false}};
  Report rep;
  analysis::verifyStrips(strips, 12, true, rep);
  EXPECT_TRUE(rep.clean()) << rep.renderText();
}

TEST(KernelCheck, CorruptedPageTableFlagsPGRules) {
  const std::vector<std::uint32_t> functionPages{3, 2};
  std::vector<analysis::PageTableEntry> entries{
      {0, 0, 5, 9},   // fine
      {0, 0, 5, 9},   // duplicate residency          -> PG004
      {7, 0, 5, 9},   // undeclared function          -> PG002
      {1, 5, 5, 9},   // page out of range            -> PG003
      {1, 0, 9, 5},   // loaded after last use        -> PG005
  };
  Report rep;
  analysis::verifyPageTable(entries, functionPages, 4, 10, rep);
  EXPECT_TRUE(hasRule(rep, "PG001"));  // 5 resident > capacity 4
  EXPECT_TRUE(hasRule(rep, "PG002"));
  EXPECT_TRUE(hasRule(rep, "PG003"));
  EXPECT_TRUE(hasRule(rep, "PG004"));
  EXPECT_TRUE(hasRule(rep, "PG005"));
}

TEST(KernelCheck, OverlayViolationsFlagOVRules) {
  CompiledCircuit resident;
  resident.name = "res";
  resident.region = Region{2, 0, 4, 8};  // must start at column 0 -> OV001
  CompiledCircuit overlay;
  overlay.name = "ovl";
  overlay.region = Region{0, 0, 4, 8};  // inside the resident strip -> OV002
  const std::vector<CompiledCircuit> overlays{overlay};
  Report rep;
  analysis::verifyOverlayLayout(&resident, overlays, 3u, 6, 12, rep);
  EXPECT_TRUE(hasRule(rep, "OV001"));
  EXPECT_TRUE(hasRule(rep, "OV002"));
  EXPECT_TRUE(hasRule(rep, "OV003"));  // active id 3 of 1 overlay
}

TEST(KernelCheck, OccupancyViolationsFlagPMRules) {
  const std::vector<Strip> strips{{0, 0, 6, true}, {1, 6, 6, true}};
  const std::vector<analysis::OccupantInfo> occupants{
      {9, 0, 4, "ghost"},  // unknown partition        -> PM002
      {1, 4, 6, "wide"},   // region escapes its strip -> PM002
  };
  Report rep;
  analysis::verifyOccupancy(strips, occupants, rep);
  EXPECT_TRUE(hasRule(rep, "PM001"));  // busy strip 0 has no occupant
  EXPECT_TRUE(hasRule(rep, "PM002"));
}

TEST(KernelCheck, SegmentResidencyViolationsFlagSGRules) {
  const std::vector<Strip> strips{{0, 0, 6, true}, {1, 6, 6, false}};
  const std::vector<analysis::SegmentResidencyInfo> resident{
      {0, 0}, {1, 0},  // two segments on one strip -> SG002
      {2, 1},          // idle strip                -> SG001
  };
  Report rep;
  analysis::verifySegmentResidency(strips, resident, rep);
  EXPECT_TRUE(hasRule(rep, "SG001"));
  EXPECT_TRUE(hasRule(rep, "SG002"));
}

TEST(KernelCheck, TaskStateViolationsFlagTSRules) {
  TaskSpec spec;
  spec.name = "t";
  spec.ops.push_back(CpuBurst{10});
  std::vector<TaskRuntime> tasks(4);
  for (auto& t : tasks) t.spec = spec;
  tasks[0].opIndex = 2;  // beyond the 1-op program -> TS001
  tasks[1].state = TaskState::kDone;  // done at op 0 -> TS002
  tasks[2].state = TaskState::kReady;
  tasks[2].partition = 1;  // holds a partition while not running -> TS003
  tasks[3].state = TaskState::kDone;
  tasks[3].opIndex = 1;
  tasks[3].cyclesRemaining = 7;  // residual work after completion -> TS004
  Report rep;
  analysis::verifyTasks(tasks, rep);
  EXPECT_TRUE(hasRule(rep, "TS001"));
  EXPECT_TRUE(hasRule(rep, "TS002"));
  EXPECT_TRUE(hasRule(rep, "TS003"));
  EXPECT_TRUE(hasRule(rep, "TS004"));
}

TEST(KernelCheck, QueueStateMismatchFlagsTS005) {
  TaskSpec spec;
  spec.ops.push_back(CpuBurst{10});
  std::vector<TaskRuntime> tasks(1);
  tasks[0].spec = spec;
  tasks[0].state = TaskState::kRunningCpu;
  const std::vector<std::size_t> cpuReady{0, 5};  // wrong state + bad index
  Report rep;
  analysis::verifyTaskQueues(tasks, cpuReady, {}, rep);
  EXPECT_EQ(rep.errorCount(), 2u);
  EXPECT_TRUE(hasRule(rep, "TS005"));
}

TEST(KernelCheck, SnapshotWithoutItsExecutionFlagsTS006) {
  TaskSpec spec;
  spec.ops = {FpgaExec{3, 100}, CpuBurst{10}};
  std::vector<TaskRuntime> tasks(3);
  for (auto& t : tasks) {
    t.spec = spec;
    t.state = TaskState::kWaitingFpga;
    t.cyclesRemaining = 40;  // cut mid-op
  }
  tasks[1].state = TaskState::kDone;  // finished owner
  tasks[2].cyclesRemaining = 100;     // op never ran
  const std::vector<analysis::SnapshotInfo> snapshots{
      {0, 3},                  // fine
      {0, 4},                  // another circuit than the op's
      {1, 3}, {2, 3}, {9, 3},  // done, fresh, no such task
  };
  Report rep;
  analysis::verifySnapshots(tasks, snapshots, rep);
  EXPECT_EQ(rep.errorCount(), 4u);
  EXPECT_TRUE(hasRule(rep, "TS006"));
}

// ----------------------------------------------------- live-manager hooks

/// Restores the invariant-check override on scope exit.
struct ChecksGuard {
  ChecksGuard() { analysis::setInvariantChecks(true); }
  ~ChecksGuard() { analysis::setInvariantChecks(false); }
};

TEST(InvariantHooks, AllocatorChurnPassesWithChecksOn) {
  ChecksGuard guard;
  StripAllocator a(16);
  auto p1 = a.allocate(5);
  auto p2 = a.allocate(3);
  ASSERT_TRUE(p1 && p2);
  a.release(*p1);
  a.allocate(2);
  a.release(*p2);
  a.compact();  // every mutation above re-verified AL001-AL004 internally
  EXPECT_NO_THROW(a.checkInvariants());
}

TEST(InvariantHooks, PageManagerAccessPassesWithChecksOn) {
  ChecksGuard guard;
  DeviceProfile profile = mediumPartialProfile();
  PageManagerOptions opt;
  opt.framesPerPage = 4;
  opt.residentCapacity = 2;
  PageManager pm(profile.port, 128, opt);
  const auto f = pm.addFunction(8);  // 2 pages
  const auto g = pm.addFunction(8);  // 2 pages
  pm.access(f);
  pm.access(g);
  pm.access(f);  // evicts under capacity pressure; hooks verify PG001-PG005
  EXPECT_NO_THROW(pm.checkInvariants());
}

}  // namespace
}  // namespace vfpga
