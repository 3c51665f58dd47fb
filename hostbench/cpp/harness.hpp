// Shared pieces of the host-time benchmark: the wall clock, the optional
// span scope of the traced run, and the interface every workload
// implements.
//
// A workload owns a pool of inputs generated from the run's seed before any
// timing starts. main.cpp calls run() on pool entries in a closed loop —
// one operation in flight, no think time — and times only that call;
// check() then verifies the operation's output outside the timed region
// and reports the deterministic values the operation produced (model
// metrics and per-layer counts), which must repeat exactly every time the
// same entry runs.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/span_tracer.hpp"

namespace hostbench {

/// Monotonic wall clock in nanoseconds (the clock of SpanTracer's default
/// constructor and of the compiler's flow spans).
std::uint64_t nowNs();

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// Span around a call into one layer when `trace` is set (the traced run);
/// nothing, at no cost, otherwise. Names are layer-qualified, e.g.
/// "fabric.download".
inline std::optional<vfpga::obs::SpanTracer::Scoped> scope(
    vfpga::obs::SpanTracer* trace, const char* name) {
  if (trace == nullptr) return std::nullopt;
  return trace->scoped(name, "hostbench");
}

/// Named deterministic values one operation produced, in a fixed order.
using Values = std::vector<std::pair<std::string, double>>;

struct OpCheck {
  /// Operation failed (counted against attempted operations).
  bool failed = false;
  /// The program produced a wrong result that no counted failure explains
  /// (a design that computes the wrong function, a digest mismatch, an
  /// unfinished task): the run is reported as incorrect.
  bool wrong = false;
  std::string cause;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t poolSize() const = 0;
  /// One line describing the generated pool.
  virtual std::string describe() const = 0;
  /// Fingerprint of the generated inputs (different seeds must differ).
  virtual std::uint64_t inputDigest() const = 0;
  /// Pool entries to run (and check) during set-up before timing starts.
  virtual std::size_t warmupOps() const = 0;
  /// The timed operation on pool entry `entry`. Spans go to `trace` when
  /// it is set.
  virtual void run(std::size_t entry, vfpga::obs::SpanTracer* trace) = 0;
  /// Untimed: verifies the last run() of `entry` and fills the values it
  /// produced (model metrics and per-layer counts, in a fixed order).
  virtual OpCheck check(std::size_t entry, Values& values) = 0;
  /// Release whatever the last operation left behind (untimed).
  virtual void reset() {}
};

/// Set-up of each workload; spans of the set-up go to `trace` when set.
std::unique_ptr<Workload> makeCadVerify(std::uint64_t seed,
                                        vfpga::obs::SpanTracer* trace);
std::unique_ptr<Workload> makeOsCampaign(std::uint64_t seed,
                                         vfpga::obs::SpanTracer* trace);
std::unique_ptr<Workload> makeFabricReplay(std::uint64_t seed,
                                           vfpga::obs::SpanTracer* trace);

/// The pinned checker false alarm: RandomNetlistParams{8, 6, 60, 4, 2}
/// seed 1022, compiled into a 6-column strip.
struct PinnedCase {
  /// Check of the cad_verify operation (two-stage proof plus lockstep).
  OpCheck operation;
  /// Verdict of checkConfiguredAgainst on the same configured fabric.
  bool provenAgainstSource = false;
};
PinnedCase runPinnedFalseAlarm();

/// Folds one 64-bit value into an FNV-1a digest.
inline std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

}  // namespace hostbench
