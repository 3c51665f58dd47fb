#include "obs/monitor/alerts.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vfpga::obs::monitor {

const char* alertSeverityName(AlertSeverity s) {
  switch (s) {
    case AlertSeverity::kWarning: return "warning";
    case AlertSeverity::kCritical: return "critical";
  }
  return "?";
}

const char* alertStateName(AlertState s) {
  switch (s) {
    case AlertState::kIdle: return "idle";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
  }
  return "?";
}

const char* ruleKindName(RuleKind k) {
  switch (k) {
    case RuleKind::kThreshold: return "threshold";
    case RuleKind::kRateOfChange: return "rate_of_change";
    case RuleKind::kBurnRate: return "burn_rate";
    case RuleKind::kEwmaZScore: return "ewma_zscore";
  }
  return "?";
}

void AlertEngine::addRule(AlertRule rule) {
  for (const RuleStatus& rs : rules_) {
    if (rs.rule.name == rule.name) {
      throw std::logic_error("duplicate alert rule: " + rule.name);
    }
  }
  RuleStatus rs;
  rs.rule = std::move(rule);
  rules_.push_back(std::move(rs));
}

namespace {

// Evaluates the rule's signal and condition at `atNs`. Returns false in
// `conditionDefined` when the rule cannot be evaluated yet (window not
// covered, EWMA warming up) — undefined conditions read as "clear".
struct Evaluation {
  double signal = 0.0;
  bool condition = false;
};

Evaluation evalRule(RuleStatus& rs, std::uint64_t atNs,
                    const TimeSeriesStore& store) {
  const AlertRule& r = rs.rule;
  Evaluation ev;
  switch (r.kind) {
    case RuleKind::kThreshold: {
      ev.signal = store.latest(r.series);
      ev.condition = r.above ? ev.signal > r.threshold
                             : ev.signal < r.threshold;
      break;
    }
    case RuleKind::kRateOfChange: {
      const auto& times = store.tickTimes();
      const auto& vals = store.values(r.series);
      if (times.empty() || atNs < r.windowNs) break;
      const std::uint64_t cutoff = atNs - r.windowNs;
      // Newest sample at or before the lookback point; none => the window
      // is not yet covered and the rule stays silent.
      std::size_t idx = times.size();
      for (std::size_t i = times.size(); i-- > 0;) {
        if (times[i] <= cutoff) {
          idx = i;
          break;
        }
      }
      if (idx == times.size()) break;
      const double dv = vals.back() - vals[idx];
      const double dtSec =
          static_cast<double>(times.back() - times[idx]) / 1e9;
      if (dtSec <= 0.0) break;
      ev.signal = dv / dtSec;
      ev.condition = r.above ? ev.signal > r.threshold
                             : ev.signal < r.threshold;
      break;
    }
    case RuleKind::kBurnRate: {
      const auto& times = store.tickTimes();
      if (times.empty() || r.objective <= 0.0) break;
      if (atNs < r.longWindowNs || times.front() > atNs - r.longWindowNs) {
        break;  // long window not fully covered yet
      }
      const WindowAgg shortAgg =
          store.aggregate(r.series, atNs - r.windowNs, atNs);
      const WindowAgg longAgg =
          store.aggregate(r.series, atNs - r.longWindowNs, atNs);
      if (shortAgg.count == 0 || longAgg.count == 0) break;
      const double shortBurn = shortAgg.mean / r.objective;
      const double longBurn = longAgg.mean / r.objective;
      ev.signal = std::min(shortBurn, longBurn);
      ev.condition = shortBurn >= r.burnFactor && longBurn >= r.burnFactor;
      break;
    }
    case RuleKind::kEwmaZScore: {
      const double v = store.latest(r.series);
      if (rs.samplesSeen >= r.warmupSamples) {
        const double sd = std::sqrt(rs.ewmaVar + 1e-12);
        ev.signal = std::fabs(v - rs.ewmaMean) / sd;
        ev.condition = ev.signal > r.zThreshold;
      }
      // Update after the check so the anomalous sample cannot mask itself.
      if (rs.samplesSeen == 0) {
        rs.ewmaMean = v;
        rs.ewmaVar = 0.0;
      } else {
        const double d = v - rs.ewmaMean;
        rs.ewmaMean += r.ewmaAlpha * d;
        rs.ewmaVar = (1.0 - r.ewmaAlpha) * (rs.ewmaVar +
                                            r.ewmaAlpha * d * d);
      }
      ++rs.samplesSeen;
      break;
    }
  }
  return ev;
}

}  // namespace

void AlertEngine::record(std::uint64_t atNs, RuleStatus& rs, AlertState from,
                         const char* to, double value) {
  AlertTransition tr;
  tr.atNs = atNs;
  tr.rule = rs.rule.name;
  tr.from = from;
  tr.to = to;
  tr.value = value;
  tr.severity = rs.rule.severity;
  transitions_.push_back(tr);
  if (observer_) observer_(transitions_.back());
}

void AlertEngine::evaluate(std::uint64_t atNs, const TimeSeriesStore& store) {
  for (RuleStatus& rs : rules_) {
    if (!store.hasSeries(rs.rule.series)) {
      throw std::logic_error("alert rule " + rs.rule.name +
                             " references unknown series " + rs.rule.series);
    }
    const Evaluation ev = evalRule(rs, atNs, store);
    rs.lastValue = ev.signal;
    rs.lastCondition = ev.condition;
    if (ev.condition) {
      switch (rs.state) {
        case AlertState::kIdle:
          rs.state = AlertState::kPending;
          rs.sinceNs = atNs;
          record(atNs, rs, AlertState::kIdle, "pending", ev.signal);
          if (rs.rule.forNs == 0) {
            rs.state = AlertState::kFiring;
            rs.sinceNs = atNs;
            rs.clearSinceNs = 0;
            ++rs.incidents;
            record(atNs, rs, AlertState::kPending, "firing", ev.signal);
          }
          break;
        case AlertState::kPending:
          if (atNs - rs.sinceNs >= rs.rule.forNs) {
            rs.state = AlertState::kFiring;
            rs.sinceNs = atNs;
            rs.clearSinceNs = 0;
            ++rs.incidents;
            record(atNs, rs, AlertState::kPending, "firing", ev.signal);
          }
          break;
        case AlertState::kFiring:
          rs.clearSinceNs = 0;  // resolution clock restarts
          break;
      }
    } else {
      switch (rs.state) {
        case AlertState::kIdle:
          break;
        case AlertState::kPending:
          rs.state = AlertState::kIdle;
          rs.sinceNs = atNs;
          record(atNs, rs, AlertState::kPending, "cancelled", ev.signal);
          break;
        case AlertState::kFiring:
          if (rs.clearSinceNs == 0) rs.clearSinceNs = atNs;
          if (atNs - rs.clearSinceNs >= rs.rule.resolveNs) {
            rs.state = AlertState::kIdle;
            rs.sinceNs = atNs;
            rs.clearSinceNs = 0;
            record(atNs, rs, AlertState::kFiring, "resolved", ev.signal);
          }
          break;
      }
    }
  }
}

int AlertEngine::worstFiringGrade() const {
  int grade = 0;
  for (const RuleStatus& rs : rules_) {
    if (rs.state != AlertState::kFiring) continue;
    grade = std::max(
        grade, rs.rule.severity == AlertSeverity::kCritical ? 2 : 1);
  }
  return grade;
}

bool AlertEngine::resolutionPending() const {
  return std::any_of(rules_.begin(), rules_.end(), [](const RuleStatus& rs) {
    if (rs.state == AlertState::kPending) return true;
    return rs.state == AlertState::kFiring && rs.clearSinceNs != 0;
  });
}

}  // namespace vfpga::obs::monitor
