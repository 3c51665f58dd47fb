// Flight recorder: when an invariant check fires (VFPGA_CHECK_INVARIANTS),
// dump a post-mortem JSON bundle — the failing rule ID, the last N Trace
// records, a snapshot of the metrics registry, recent spans and the full
// diagnostic report — so the failure can be studied without re-running.
//
// Each OsKernel owns one recorder; there is no process-wide instance.
//
// Layering: this library depends only on vfpga_sim, so `dump()` takes the
// diagnostics as a pre-rendered JSON string. The glue that turns an
// analysis::InvariantViolation into a dump (core/obs_bridge.hpp::dumpFlight)
// lives above both, keeping obs free of an analysis -> compile -> obs
// dependency cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "obs/metrics_registry.hpp"
#include "obs/span_tracer.hpp"
#include "sim/trace.hpp"

namespace vfpga::obs {

class FlightRecorder {
 public:
  struct Options {
    /// Output directory; empty falls back to $VFPGA_FLIGHT_DIR, then ".".
    std::string directory;
    /// Bundle files are named `<prefix>_<ruleOrReason>_<seq>.json`.
    std::string prefix = "vfpga_flight";
    /// How many of the newest Trace records to keep in the bundle.
    std::size_t traceTail = 256;
    /// How many of the newest note() entries to keep.
    std::size_t noteCapacity = 256;
  };

  FlightRecorder() = default;
  explicit FlightRecorder(Options options) : options_(std::move(options)) {}

  /// Attach sources; pointers must outlive the recorder (or be detached by
  /// attaching nullptr). All are optional.
  void attachTrace(const Trace* trace) { trace_ = trace; }
  void attachRegistry(const MetricsRegistry* registry) { registry_ = registry; }
  void attachSpans(const SpanTracer* spans) { spans_ = spans; }

  /// Appends a time-stamped note to a bounded ring (newest `noteCapacity`
  /// kept) included in every bundle under "notes". The continuous monitor
  /// records alert transitions here so a post-mortem shows what was firing
  /// leading up to the failure.
  void note(std::uint64_t atNs, std::string text);
  struct Note {
    std::uint64_t atNs = 0;
    std::string text;
  };
  const std::deque<Note>& notes() const { return notes_; }

  /// Writes the bundle and returns its path. `diagnosticsJson` must be
  /// either empty or a valid JSON value (it is embedded verbatim). Throws
  /// std::runtime_error when the file cannot be written.
  std::string dump(std::string_view ruleId, std::string_view context,
                   std::string_view diagnosticsJson = {});

  /// Renders the bundle without touching the filesystem (used by tests).
  std::string renderBundle(std::string_view ruleId, std::string_view context,
                           std::string_view diagnosticsJson = {}) const;

  std::size_t dumpCount() const { return dumps_; }
  const Options& options() const { return options_; }
  /// Settable after construction, e.g. by the owner of a kernel that wants
  /// its bundles named apart from its neighbours'.
  Options& options() { return options_; }

 private:
  Options options_;
  const Trace* trace_ = nullptr;
  const MetricsRegistry* registry_ = nullptr;
  const SpanTracer* spans_ = nullptr;
  std::deque<Note> notes_;
  std::size_t dumps_ = 0;
};

}  // namespace vfpga::obs
