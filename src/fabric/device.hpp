// The physical FPGA device model.
//
// A Device owns a configuration RAM image. After every configuration change
// it lazily *elaborates* the image: decodes enabled switches into signal
// paths, enabled CLBs into LUT/FF cells, and enabled pad slots into the I/O
// interface — reporting configuration faults (driver contention, undriven
// output pads, combinational loops through routing) instead of silently
// producing garbage. Functional evaluation and clocking then run on the
// elaborated design, which agrees bit-for-bit with the source Netlist's
// Evaluator after compilation (checked by the end-to-end tests).
//
// FF state is externally observable and controllable (ffState/setFfState),
// modelling the readback/scan capability the paper requires of circuits
// that the OS may preempt ("the internal state ... must be observable ...
// and controllable", §3). It is stored per CLB site, so reading or writing
// one register (ffStateAt/setFfStateAt) checks the image's enable bits and
// never elaborates: a download followed by a state restore costs no
// rebuild. The *cost* of that access is charged by ConfigPort, not here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/activity_probe.hpp"
#include "fabric/bitstream.hpp"
#include "fabric/config_map.hpp"
#include "fabric/fast_path.hpp"
#include "fabric/routing_graph.hpp"
#include "sim/types.hpp"

namespace vfpga {

namespace compiled {
class CompiledFabric;
}  // namespace compiled

/// Delay model constants for the timing analyzer.
struct DeviceTiming {
  SimDuration lutDelay = nanos(2);
  SimDuration switchDelay = nanos(1);  ///< per routing switch hop
  SimDuration padDelay = nanos(2);
  SimDuration clockMargin = nanos(2);  ///< setup/skew margin added to Tcrit
};

/// Where a routed signal originates.
struct SignalSource {
  enum class Kind : std::uint8_t { kUndriven, kCell, kPadSlot };
  Kind kind = Kind::kUndriven;
  std::uint32_t index = 0;  ///< cell index or dense pad-slot index
  std::uint32_t hops = 0;   ///< switches traversed from origin to sink

  bool operator==(const SignalSource&) const = default;
};

/// Decoded view of the configuration RAM.
struct Elaboration {
  struct Cell {
    std::uint16_t x = 0, y = 0;
    std::uint32_t lutTable = 0;  ///< truth table, bit i = output for input i
    bool useFf = false;
    std::uint32_t ffIndex = 0;  ///< dense FF number when useFf
    std::vector<SignalSource> inputs;  ///< K entries

    bool operator==(const Cell&) const = default;
  };
  struct PadOut {
    std::uint32_t slot = 0;  ///< dense pad-slot index
    SignalSource source;

    bool operator==(const PadOut&) const = default;
  };

  std::vector<Cell> cells;               ///< enabled CLBs
  std::vector<std::uint32_t> evalOrder;  ///< comb-safe cell order
  std::vector<PadOut> padOuts;
  std::vector<std::uint32_t> inputSlots;  ///< slots configured as inputs
  std::uint32_t ffCount = 0;
  /// Cell index per CLB flat index (y * cols + x); -1 when disabled.
  std::vector<std::int32_t> cellOfClb;
  std::vector<std::string> faults;

  bool ok() const { return faults.empty(); }
  bool operator==(const Elaboration&) const = default;
};

/// Pure decode of `image` on the fabric `rrg`/`map` describe; configuration
/// faults land in Elaboration::faults. Device and OS registration share it.
/// Switch drivers come from the set bits of each column's edge run
/// (ConfigMap::edgeRun), a word at a time, so the decode costs what the
/// image holds rather than the fabric's switch count. An image shorter than
/// the bits the map uses throws std::out_of_range.
Elaboration elaborate(const RoutingGraph& rrg, const ConfigMap& map,
                      const ConfigImage& image);

/// Longest register-to-register / pad-to-pad combinational delay of an
/// elaborated design under `timing` (0 when it does not decode).
SimDuration criticalPathDelay(const Elaboration& elab,
                              const DeviceTiming& timing);

class Device {
 public:
  explicit Device(const FabricGeometry& g, DeviceTiming timing = {},
                  std::uint32_t frameBits = 128);

  const FabricGeometry& geometry() const { return rrg_.geometry(); }
  const RoutingGraph& rrg() const { return rrg_; }
  const ConfigMap& configMap() const { return map_; }
  const DeviceTiming& timing() const { return timing_; }

  // ---- configuration -------------------------------------------------------
  const ConfigImage& image() const { return image_; }
  /// Direct image mutation (used by ConfigPort and tests); invalidates the
  /// current elaboration.
  void setConfigBit(std::uint32_t bit, bool v);
  void applyBitstream(const Bitstream& bs);
  void clearConfig();

  // ---- elaboration ---------------------------------------------------------
  /// Decoded configuration; rebuilt lazily after config changes.
  const Elaboration& elaboration();
  bool configOk() { return elaboration().ok(); }

  // ---- I/O and evaluation ---------------------------------------------------
  void setPadSlotInput(std::size_t slotIndex, bool v);
  bool padSlotOutput(std::size_t slotIndex);
  /// Combinational settle: propagates pad inputs and FF state to outputs.
  void evaluate();
  /// Clock edge (evaluate() must have been called since the last change).
  void tick();
  std::uint64_t cyclesTicked() const { return cycles_; }

  /// Attaches (or detaches, with nullptr) an activity profiler. The probe
  /// counts LUT evaluations, output toggles and switchbox traversals per
  /// site inside evaluate()/tick(); when no probe is attached the only
  /// cost is a null-pointer check. Counters accumulate across
  /// reconfigurations — see fabric/activity_probe.hpp.
  void attachActivityProbe(ActivityProbe* probe);
  ActivityProbe* activityProbe() const { return probe_; }

  // ---- compiled fast path ---------------------------------------------------
  /// Attaches (or detaches, with nullptr) a compiled evaluation kernel.
  /// While attached — and no probe is attached, and the fast path is not
  /// inhibited — evaluate()/tick() are served by the kernel instead of the
  /// interpretive walk (see fabric/fast_path.hpp for the full contract).
  void attachFastPath(FastPathKernel* kernel) { fast_ = kernel; }
  FastPathKernel* fastPath() const { return fast_; }

  /// Forces interpretive evaluation while set. ConfigPort installs this
  /// whenever a download tamper hook (wire-fault model) is active, so fault
  /// campaigns always exercise the interpretive fault semantics.
  void setFastPathInhibited(bool inhibited) { fastInhibit_ = inhibited; }
  bool fastPathInhibited() const { return fastInhibit_; }

  /// Monotonic configuration generation: bumped by every mutation of the
  /// config image (setConfigBit / applyBitstream / clearConfig — i.e. every
  /// download, relocation, scrub repair, migration resume and quarantine
  /// blanking). Compiled kernels key their validity on this, which makes
  /// invalidation mandatory on every reconfiguration path.
  std::uint64_t configGeneration() const { return configGen_; }

  // ---- FF state (readback / writeback) --------------------------------------
  std::size_t ffCount() { return elaboration().ffCount; }
  std::vector<bool> ffState();
  void setFfState(const std::vector<bool>& state);
  /// Per-CLB state access (readback by coordinate): valid only for a CLB
  /// the image enables in FF mode. Unlike the dense ffState() vector these
  /// are stable when *other* circuits come and go on the same device, which
  /// is what partition-level state save/restore needs, and they never
  /// elaborate.
  bool ffStateAt(int x, int y) const;
  void setFfStateAt(int x, int y, bool v);
  /// Resets all FFs to zero (power-on state).
  void resetFfs();

  // ---- timing ----------------------------------------------------------------
  /// Longest register-to-register / pad-to-pad combinational delay of the
  /// currently configured design.
  SimDuration criticalPathDelay() {
    return vfpga::criticalPathDelay(elaboration(), timing_);
  }
  SimDuration minClockPeriod() { return criticalPathDelay() + timing_.clockMargin; }

 private:
  RoutingGraph rrg_;
  ConfigMap map_;
  DeviceTiming timing_;
  ConfigImage image_;
  Elaboration elab_;
  bool elabValid_ = false;

  std::vector<std::uint8_t> padInput_;   // externally driven values per slot
  std::vector<std::uint8_t> padOutput_;  // computed values per slot
  std::vector<std::uint8_t> cellValue_;  // current output value per cell
  std::vector<std::uint8_t> cellLutOut_; // LUT output per cell (pre-FF)
  std::vector<std::uint8_t> ffSite_;     // FF state per CLB (y * cols + x)
  std::uint64_t cycles_ = 0;
  ActivityProbe* probe_ = nullptr;
  FastPathKernel* fast_ = nullptr;
  bool fastInhibit_ = false;
  std::uint64_t configGen_ = 0;

  // The compiled engine operates directly on the arrays above (tape-driven
  // stores into cellValue_/cellLutOut_/ffSite_/padOutput_), keeping
  // readback, migration and probe hand-off coherent with the interpreter.
  friend class compiled::CompiledFabric;

  void bindProbe();
  bool sourceValue(const SignalSource& s) const;
  std::size_t siteOf(const Elaboration::Cell& cell) const {
    return static_cast<std::size_t>(cell.y) * rrg_.geometry().cols + cell.x;
  }
  std::size_t ffSiteAt(int x, int y) const;
};

}  // namespace vfpga
