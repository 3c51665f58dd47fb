// Alert-rule engine over the TimeSeriesStore.
//
// Four rule kinds (docs/OBSERVABILITY.md "Continuous monitoring"):
//  - kThreshold:    latest sample above/below a static bound;
//  - kRateOfChange: per-second slope over a lookback window;
//  - kBurnRate:     multi-window SLO burn rate — the window-mean of a
//    badness series (fraction in [0,1]) divided by the allowed objective
//    must reach `burnFactor` in BOTH the short and the long window, the
//    standard fast-burn/slow-burn pairing (short window = responsive,
//    long window = sustained);
//  - kEwmaZScore:   anomaly detection — |v - ewmaMean| > z * ewmaStddev,
//    suppressed for the first `warmupSamples` samples.
//
// Hysteresis is a pending -> firing -> resolved state machine: the
// condition must hold `forNs` before an alert fires and stay clear
// `resolveNs` before it resolves. Transitions are deduplicated by
// construction (a firing alert never re-fires until it resolves) and every
// transition is handed to the observer, which the callers wire to span
// instants and flight-recorder notes.
//
// Everything is evaluated on the store's sim-time ticks — no wall clocks,
// byte-deterministic per seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/monitor/timeseries.hpp"

namespace vfpga::obs::monitor {

enum class AlertSeverity : std::uint8_t { kWarning, kCritical };
enum class AlertState : std::uint8_t { kIdle, kPending, kFiring };
enum class RuleKind : std::uint8_t {
  kThreshold,
  kRateOfChange,
  kBurnRate,
  kEwmaZScore,
};

const char* alertSeverityName(AlertSeverity s);
const char* alertStateName(AlertState s);
const char* ruleKindName(RuleKind k);

struct AlertRule {
  std::string name;
  std::string series;
  RuleKind kind = RuleKind::kThreshold;
  AlertSeverity severity = AlertSeverity::kWarning;

  /// kThreshold: the static bound. kRateOfChange: per-second slope bound.
  double threshold = 0.0;
  /// Direction: true fires when the signal exceeds the bound, false when it
  /// drops below (kThreshold / kRateOfChange only).
  bool above = true;

  /// kRateOfChange: lookback. kBurnRate: the short window.
  std::uint64_t windowNs = 0;
  /// kBurnRate: the long window (must be strictly larger than windowNs —
  /// MO003). The rule stays silent until the store has retained a full long
  /// window of samples.
  std::uint64_t longWindowNs = 0;
  /// kBurnRate: allowed bad fraction (the error budget rate), > 0 (MO002).
  double objective = 0.0;
  /// kBurnRate: fire when windowMean/objective >= burnFactor in both
  /// windows.
  double burnFactor = 1.0;

  /// kEwmaZScore parameters.
  double ewmaAlpha = 0.2;
  double zThreshold = 3.0;
  std::size_t warmupSamples = 8;

  /// Hysteresis: condition must hold forNs before firing and stay clear
  /// resolveNs before resolving (0 = immediate).
  std::uint64_t forNs = 0;
  std::uint64_t resolveNs = 0;
};

/// One edge of a rule's state machine. `to` is one of "pending",
/// "cancelled" (pending cleared before forNs elapsed), "firing",
/// "resolved". `value` is the evaluated signal (sample, slope, burn rate or
/// z-score) at the transition tick.
struct AlertTransition {
  std::uint64_t atNs = 0;
  std::string rule;
  AlertState from = AlertState::kIdle;
  std::string to;
  double value = 0.0;
  AlertSeverity severity = AlertSeverity::kWarning;
};

/// Live state of one rule.
struct RuleStatus {
  AlertRule rule;
  AlertState state = AlertState::kIdle;
  std::uint64_t sinceNs = 0;       // when the current state was entered
  std::uint64_t clearSinceNs = 0;  // firing only: first tick condition was
                                   // clear (0 = condition still true)
  std::uint64_t incidents = 0;     // times the rule reached firing
  double lastValue = 0.0;          // last evaluated signal
  bool lastCondition = false;
  // EWMA accumulator (kEwmaZScore only).
  double ewmaMean = 0.0;
  double ewmaVar = 0.0;
  std::uint64_t samplesSeen = 0;
};

class AlertEngine {
 public:
  using TransitionObserver = std::function<void(const AlertTransition&)>;

  /// Duplicate rule names throw std::logic_error (deduplication: one rule
  /// per name, one incident per fire/resolve cycle).
  void addRule(AlertRule rule);

  /// Evaluates every rule against the store at tick time `atNs` (call
  /// right after store.sampleAll(atNs)). Rules referencing series the
  /// store does not have throw std::logic_error — run the MO lint pass
  /// first to catch this before a campaign.
  void evaluate(std::uint64_t atNs, const TimeSeriesStore& store);

  const std::vector<RuleStatus>& rules() const { return rules_; }
  const std::vector<AlertTransition>& transitions() const {
    return transitions_;
  }

  /// Worst severity among currently-firing rules as an exit grade:
  /// 0 nothing firing, 1 worst is warning, 2 worst is critical.
  int worstFiringGrade() const;

  /// True while any rule is mid-hysteresis: pending, or firing with the
  /// condition currently clear (a resolution clock is running). Drivers use
  /// this to keep ticking briefly after a campaign settles so resolutions
  /// can land.
  bool resolutionPending() const;

  void setTransitionObserver(TransitionObserver obs) {
    observer_ = std::move(obs);
  }

 private:
  void record(std::uint64_t atNs, RuleStatus& rs, AlertState from,
              const char* to, double value);

  std::vector<RuleStatus> rules_;  // registration order
  std::vector<AlertTransition> transitions_;
  TransitionObserver observer_;
};

}  // namespace vfpga::obs::monitor
