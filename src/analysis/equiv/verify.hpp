// High-level equivalence verification drivers: extract the configured
// device, prove it equivalent to a golden reference, and surface the
// outcome as EQ diagnostics / invariant checks.
//
// These run at the three places corruption can enter a live system:
//  * after Compiler::relocate (relocateProven, which every OS manager
//    relocates through);
//  * after cluster migration resume (OsKernel calls verifyConfiguredOrThrow);
//  * after fault-layer scrub repair (ditto).
#pragma once

#include <string>
#include <string_view>

#include "analysis/diagnostics.hpp"
#include "analysis/equiv/check.hpp"
#include "analysis/equiv/extract.hpp"

namespace vfpga::analysis::equiv {

/// Outcome of one configured-vs-golden check.
struct ConfiguredCheck {
  ExtractedDesign extracted;
  EquivResult result;
  bool ok() const { return extracted.ok() && result.equivalent; }
};

/// Checks the device's configuration in `c`'s region against the compiled
/// mapped netlist (the painter's input). Registers are pinned exactly via
/// CompiledCircuit::ffSites, so the proof is fully structural/exhaustive
/// for healthy configurations.
ConfiguredCheck checkConfigured(Device& dev, const CompiledCircuit& c,
                                EquivOptions opt = {});

/// Same, but against an independent golden netlist (typically the *source*
/// netlist the circuit was compiled from). Registers the optimizer or
/// mapper re-arranged are matched by simulation signature; leftovers fall
/// back to the sequential random-simulation oracle.
ConfiguredCheck checkConfiguredAgainst(Device& dev, const CompiledCircuit& c,
                                       const Netlist& golden,
                                       EquivOptions opt = {});

/// Maps a ConfiguredCheck onto the EQ rule family of `rep`.
void lintEquivalence(const ConfiguredCheck& chk, const std::string& circuit,
                     Report& rep);

/// Invariant form: checkConfigured + lintEquivalence + throwIfErrors.
/// Throws InvariantViolation when the configured fabric no longer computes
/// the compiled circuit.
void verifyConfiguredOrThrow(Device& dev, const CompiledCircuit& c,
                             std::string_view context);

/// Relocation with its post-condition: returns compiler.relocate(c, x0)
/// and, when invariant checks are enabled (VFPGA_CHECK_INVARIANTS /
/// setInvariantChecks) and the circuit actually moves, first applies the
/// relocated image to a scratch device of the compiler's fabric and proves
/// it equivalent to the relocated mapped netlist. Throws
/// InvariantViolation when that proof fails.
CompiledCircuit relocateProven(Compiler& compiler, const CompiledCircuit& c,
                               std::uint16_t x0);

}  // namespace vfpga::analysis::equiv
