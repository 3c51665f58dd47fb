// Levelized evaluation schedule ("fabric program") for the compiled fast
// path.
//
// A FabricProgram is a flat, immutable compilation of one configured
// device image: the decoded elaboration (the same decode that
// analysis/equiv reverse extraction proves against the source netlist —
// what is *actually on the fabric*, never the compiler's intent) is
// levelized into a topological schedule of LUT operations over a single
// dense value tape:
//
//   tape slot 0                     constant 0 (all undriven sources)
//   tape slots [padBase, cellBase)  pad-slot input values
//   tape slots [cellBase, tapeSize) cell output values
//
// Each comb op gathers its K input bits from precomputed tape slots,
// indexes its truth table by shift/mask, and stores to its own slot — no
// per-input source-kind branch, no per-cell heap vectors, no probe check.
// FF next-state ops run after all comb ops (their `out` is the dense FF
// index). Routing is fully resolved at build time: a switch chain is just
// a tape-slot alias, so switchboxes cost nothing per cycle.
//
// Programs are position-independent w.r.t. device *storage* (they address
// tape slots, not pointers), so one shared_ptr<const FabricProgram> can be
// cached under its config-image digest and reused by any device currently
// holding a bit-identical image (CompiledKernelCache), and by any number
// of 64-wide batch evaluation sessions concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace vfpga {
class Device;
}  // namespace vfpga

namespace vfpga::compiled {

/// Widest LUT the schedule format supports (table fits a uint64_t).
inline constexpr std::uint32_t kMaxLutInputs = 6;

struct FabricProgram {
  struct Op {
    std::uint64_t table = 0;  ///< truth table over lutInputs inputs
    /// Comb op: tape slot written. FF next-state op: dense FF index.
    std::uint32_t out = 0;
    std::uint32_t cell = 0;  ///< device cell index (mirror stores)
    std::uint32_t in[kMaxLutInputs] = {0, 0, 0, 0, 0, 0};  ///< tape slots
  };
  struct FfBind {
    std::uint32_t cell = 0;     ///< device cell index of the FF cell
    std::uint32_t ffIndex = 0;  ///< dense FF index (batch state order)
    std::uint32_t site = 0;     ///< CLB site (y * cols + x) of its state
  };
  struct PadBind {
    std::uint32_t slot = 0;  ///< dense pad-slot index
    std::uint32_t src = 0;   ///< tape slot driving it
  };

  std::uint8_t lutInputs = 4;
  std::uint32_t tapeSize = 1;
  std::uint32_t padBase = 1;
  std::uint32_t cellBase = 1;
  /// Digest of the config image + geometry this program was built from
  /// (the CompiledKernelCache key).
  std::uint64_t digest = 0;

  /// Comb LUT ops in level order (level = longest comb path from a
  /// register/pad, ties broken by cell index — a deterministic schedule).
  std::vector<Op> comb;
  /// levels()+1 offsets into `comb`: ops of level L live in
  /// [levelStart[L], levelStart[L+1]).
  std::vector<std::uint32_t> levelStart;
  /// FF next-state ops (run after all comb ops; `out` = dense FF index).
  std::vector<Op> ffNext;
  /// FF cells: registered output publication (state -> cell slot).
  std::vector<FfBind> ffs;
  /// Output pads and the tape slot each one samples.
  std::vector<PadBind> padOuts;
  /// Pad slots configured as inputs (tape sync-in list).
  std::vector<std::uint32_t> inputSlots;

  std::size_t levels() const {
    return levelStart.empty() ? 0 : levelStart.size() - 1;
  }
  std::size_t opCount() const { return comb.size() + ffNext.size(); }
};

/// FNV-1a digest of the device's configuration image and geometry — the
/// cache key. Two devices with bit-identical images and geometry compute
/// identical functions, regardless of which bitstreams/placements produced
/// the image (this subsumes keying by circuit-store key + placement, and makes
/// the key correct for hand-poked images too).
std::uint64_t configDigest(const Device& dev);

/// Builds the levelized program for the device's *current* configuration.
/// Returns nullptr when the elaboration reports faults (contention,
/// combinational loops, undriven output pads): faulted configurations are
/// served interpretively so their fault semantics stay authoritative.
std::shared_ptr<const FabricProgram> levelizeDevice(Device& dev);

}  // namespace vfpga::compiled
