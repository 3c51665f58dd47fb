// Diagnostics engine of the static-analysis subsystem.
//
// Every analysis pass and invariant verifier reports through a Report: a
// flat list of Diagnostics, each carrying a stable rule ID (see
// allRules()), a severity, a structured location and an optional trail of
// notes (e.g. the gates of a combinational cycle). Reports render to
// human-readable text and to JSON (one stable schema for CI tooling).
//
// The same rule IDs back two consumers:
//  * `vfpga_cli lint` runs the passes offline over a circuit or the whole
//    catalogue and prints the report;
//  * the OS managers (src/core) re-run their invariant verifiers after
//    every mutation when VFPGA_CHECK_INVARIANTS is set, turning silent
//    bookkeeping corruption into an immediate InvariantViolation.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace vfpga::analysis {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

const char* severityName(Severity s);

/// Structured "where": what kind of object the diagnostic is anchored to,
/// its index in that object space, optional grid coordinates and a
/// human-readable detail (a name or a resource description).
struct Location {
  enum class Kind : std::uint8_t {
    kNone,
    kGate,     ///< Netlist gate id
    kCell,     ///< mapped cell index
    kNet,      ///< mapped net id
    kSite,     ///< CLB site (x, y meaningful)
    kRRNode,   ///< routing-resource node id
    kFrame,    ///< configuration frame id
    kPort,     ///< circuit port (index into CompiledCircuit::ports)
    kStrip,    ///< allocator strip / partition id
    kPage,     ///< page-table entry (function, page in detail)
    kTask,     ///< kernel task index
    kOverlay,  ///< overlay id
    kSegment,  ///< segment id
  };
  Kind kind = Kind::kNone;
  std::int64_t index = -1;
  std::int32_t x = -1;
  std::int32_t y = -1;
  std::string detail;
};

const char* locationKindName(Location::Kind k);

struct Diagnostic {
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;
  Location location;
  std::vector<std::string> notes;
};

/// Static metadata of one rule; the registry in diagnostics.cpp is the
/// single source of truth (docs/ANALYSIS.md mirrors it).
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* title;
  const char* description;
};

std::span<const RuleInfo> allRules();
/// nullptr for an unknown id.
const RuleInfo* findRule(std::string_view id);

class Report {
 public:
  /// Appends a diagnostic for `ruleId` (severity from the registry; an
  /// unregistered id is an error-severity programming mistake, reported as
  /// such rather than dropped). Returns the stored entry so callers can
  /// attach notes.
  Diagnostic& add(std::string_view ruleId, std::string message,
                  Location location = {});

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  std::size_t errorCount() const { return errors_; }
  std::size_t warningCount() const { return warnings_; }
  /// No diagnostics at all (not even notes).
  bool clean() const { return diagnostics_.empty(); }
  /// No error-severity diagnostics.
  bool ok() const { return errors_ == 0; }

  std::string renderText() const;
  std::string renderJson() const;

 private:
  std::vector<Diagnostic> diagnostics_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
};

/// Thrown by the managers' checkInvariants() hooks on any error-severity
/// diagnostic; what() carries the rendered report. The fields are what a
/// post-mortem needs: the kernel that catches it dumps them into its own
/// flight recorder (core/obs_bridge.hpp::dumpFlight) and rethrows.
class InvariantViolation : public std::logic_error {
 public:
  InvariantViolation(const Report& rep, std::string_view context);

  /// Rule ID of the first error diagnostic.
  const std::string& rule() const { return rule_; }
  const std::string& context() const { return context_; }
  /// The failing report, rendered by Report::renderJson().
  const std::string& reportJson() const { return reportJson_; }

 private:
  std::string rule_;
  std::string context_;
  std::string reportJson_;
};

/// Throws InvariantViolation when `rep` holds any error diagnostic.
void throwIfErrors(const Report& rep, std::string_view context);

/// True when the in-manager invariant hooks should run: either forced via
/// setInvariantChecks(), or VFPGA_CHECK_INVARIANTS is set in the
/// environment to anything but "" or "0" (read once, cached).
bool invariantChecksEnabled();
/// Programmatic override of the environment gate (tests, `vfpga_cli lint`).
void setInvariantChecks(bool enabled);

}  // namespace vfpga::analysis
