// End-to-end circuit compiler: Netlist -> K-LUT mapping -> placement ->
// routing -> sealed partial bitstream of the region's frames (the only
// stored form of a circuit's configuration), targeting a region of a device.
//
// Compiled circuits are *relocatable* by default: they use only resources
// that exist identically in every same-width column strip (north/south
// pads, the strip's own channels), so `relocate()` can retarget them to
// another strip by pure coordinate translation — no re-placement or
// re-routing. This implements the paper's "relocatable circuit to be loaded
// virtually in any location of the FPGA" (§4); the download time of the
// relocated bitstream is the relocation cost the paper warns about.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/bitstream.hpp"
#include "fabric/device.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/span_tracer.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "techmap/lut_mapper.hpp"
#include "techmap/mapped_netlist.hpp"

namespace vfpga {

struct CompileOptions {
  std::uint64_t seed = 1;
  /// Run the technology-independent optimizer (constant folding, CSE,
  /// dead-code removal) before mapping.
  bool optimize = true;
  /// Restrict I/O to north/south pads and routing to translation-invariant
  /// resources so the result can be relocated. Turn off to let a circuit
  /// that spans the full device use every pad and channel.
  bool relocatable = true;
  int attempts = 4;  ///< place-and-route retries with reseeded placement
  PlaceOptions place;
  RouteOptions route;
};

struct PortBinding {
  std::string name;
  std::uint32_t padSlot = 0;  ///< dense pad-slot index
  bool isInput = true;
};

/// A fully compiled circuit, ready for download to its region (or, if
/// relocatable, any same-width strip).
struct CompiledCircuit {
  std::string name;
  Region region;
  bool relocatable = true;
  MappedNetlist mapped;
  Placement placement;
  RouteResult routes;
  std::vector<PortBinding> ports;  ///< inputs then outputs, port order
  /// The configuration: every frame of the region's columns, sealed.
  Bitstream bitstream;
  std::uint32_t deviceFrames = 0;  ///< frames of the target device

  /// Span id of the enclosing `compile` flow span (0 when no tracer was
  /// attached). OS-side download/exec spans link back to it, connecting
  /// runtime behavior to the compile decision that produced the config.
  std::uint64_t compileSpanId = 0;

  /// CLB site of the i-th FF of the mapped netlist (MappedEvaluator
  /// order); stable under multi-circuit residency, translated by relocate().
  std::vector<CellSite> ffSites;
  /// Initial FF values in the same (mapped) order; all-zero circuits need
  /// no state writeback after download.
  std::vector<bool> initialState;

  std::size_t cellCount() const { return mapped.cells.size(); }
  std::size_t ffCount() const { return ffSites.size(); }
  std::size_t portCount() const { return ports.size(); }
  bool needsInitialState() const;

  /// Pad-slot index of a named port (throws std::out_of_range).
  std::uint32_t padSlotOf(const std::string& portName) const;

  /// Bitstream carrying only this circuit's frames.
  const Bitstream& partialBitstream() const { return bitstream; }
  /// Full-device bitstream (this circuit alone on an otherwise blank part).
  Bitstream fullBitstream() const;
};

class CompileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Compiler {
 public:
  /// Compiles against the target's geometry and configuration layout. The
  /// device is only read (never configured) by the compiler.
  explicit Compiler(Device& target) : dev_(&target) {}

  const FabricGeometry& geometry() const { return dev_->geometry(); }
  const DeviceTiming& timing() const { return dev_->timing(); }

  /// Netlist in, compiled circuit out. Throws CompileError when the region
  /// cannot fit the cells or I/O, or place-and-route fails after retries.
  CompiledCircuit compile(const Netlist& nl, const Region& region,
                          const CompileOptions& options = {});

  /// Same, starting from an already-mapped netlist.
  CompiledCircuit compileMapped(const MappedNetlist& mapped,
                                const std::string& name, const Region& region,
                                const CompileOptions& options = {});

  /// Retargets a relocatable circuit to the strip starting at column
  /// `newX0` by coordinate translation. Throws CompileError for
  /// non-relocatable inputs or out-of-range targets. Returns `c` unchanged
  /// when `newX0` is already its column. The OS managers call it through
  /// analysis::equiv::relocateProven, which also proves the result when
  /// invariant checks are on (analysis links against this library, so the
  /// proof cannot live here).
  CompiledCircuit relocate(const CompiledCircuit& c, std::uint16_t newX0);

  /// Pad-slot capacity available to a compile in `region`.
  std::size_t ioCapacity(const Region& region, bool relocatable) const;

  /// Attaches flow observers (both optional, not owned, may be nullptr to
  /// detach). With a tracer, every compile emits wall-clock spans per phase
  /// (synth, techmap, place, route, bitstream) plus an enclosing `compile`
  /// span; with a registry, each phase's wall time is observed into the
  /// `vfpga_flow_<phase>_ns` stats family.
  void setObservers(obs::SpanTracer* tracer, obs::MetricsRegistry* registry) {
    tracer_ = tracer;
    flowMetrics_ = registry;
  }

 private:
  Device* dev_;
  obs::SpanTracer* tracer_ = nullptr;
  obs::MetricsRegistry* flowMetrics_ = nullptr;

  /// Closes a flow phase opened at `startNs` (wall clock): span + stats.
  /// Returns the span id (0 with no tracer attached).
  std::uint64_t recordPhase(const char* phase, const std::string& circuit,
                            std::uint64_t startNs,
                            obs::AttrList extra = {}) const;

  std::vector<std::uint32_t> regionPadSlots(const Region& region,
                                            bool relocatable) const;
  std::vector<char> regionMask(const Region& region, bool relocatable) const;
  void paintImage(CompiledCircuit& c) const;
};

}  // namespace vfpga
