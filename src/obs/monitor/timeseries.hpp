// Deterministic time-series store: the continuous-monitoring signal plane.
//
// A store holds a fixed-capacity ring of samples per registered series, all
// series sampled together on a sim-time cadence (sampleAll). Values come
// from probes — plain callables — or from bindMetric(), which resolves a
// MetricsRegistry instance lazily each tick (lazily-created metric families
// read as 0 until they appear). There are no wall clocks anywhere in this
// layer, so a seeded campaign produces byte-identical CSV/JSON exports.
//
// Downsampling is a query, not a mutation: aggregate() folds a window into
// min/max/mean/last, rollup() grids the retained samples into fixed-width
// buckets. When a ring overflows the oldest tick is dropped (counted in
// droppedTicks) but the per-series all-time OnlineStats keeps exact
// count/min/max/mean over every sample ever taken.
//
// Layering: vfpga_obs depends only on vfpga_sim; consumers in core/cluster
// bind probes through core/obs_bridge.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "sim/stats.hpp"

namespace vfpga::obs::monitor {

/// Which scalar a registry-bound series reads from its metric instance.
/// kValue is the counter/gauge value; count/sum/mean/min/max apply to stats
/// and histogram metrics; percentiles apply to histograms only (stats fall
/// back to mean). Missing metrics and inapplicable fields read as 0.
enum class SeriesField : std::uint8_t {
  kValue,
  kCount,
  kSum,
  kMean,
  kMin,
  kMax,
  kP50,
  kP90,
  kP99,
};

/// min/max/mean/last fold of a sample window (count == 0 => all zeros).
struct WindowAgg {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double last = 0.0;
};

class TimeSeriesStore {
 public:
  using Probe = std::function<double()>;

  /// `capacity` is the per-series ring size (shared tick ring has the same
  /// capacity); must be >= 2.
  explicit TimeSeriesStore(std::size_t capacity = 1024);

  /// Registers a probe-backed series. Duplicate names throw
  /// std::logic_error. Series must be registered before the first
  /// sampleAll().
  void addSeries(std::string name, Probe probe, std::string unit = "");

  /// Registers a series that reads `field` of registry instance
  /// (metric, labels) on every tick. The registry must outlive the store;
  /// the instance may be created later (reads 0 until then).
  void bindMetric(std::string name, const MetricsRegistry& registry,
                  std::string metric, Labels labels = {},
                  SeriesField field = SeriesField::kValue,
                  std::string unit = "");

  /// Takes one sample of every series at sim time `atNs`. Tick times must
  /// be strictly increasing (throws std::logic_error otherwise).
  void sampleAll(std::uint64_t atNs);

  bool hasSeries(const std::string& name) const;
  /// Registration order (the order rows render in dashboards).
  std::vector<std::string> seriesNames() const;
  std::size_t seriesCount() const { return series_.size(); }

  /// Ticks currently retained (<= capacity) and ever taken.
  std::size_t retainedTicks() const { return tickTimes_.size(); }
  std::uint64_t totalTicks() const { return totalTicks_; }
  std::uint64_t droppedTicks() const { return droppedTicks_; }
  std::uint64_t lastTickNs() const;

  /// Retained sample times (oldest first); values(name)[i] pairs with
  /// tickTimes()[i].
  const std::deque<std::uint64_t>& tickTimes() const { return tickTimes_; }
  const std::deque<double>& values(const std::string& name) const;
  double latest(const std::string& name) const;
  /// All-time stats over every sample ever taken (survives ring overflow).
  const OnlineStats& allTime(const std::string& name) const;
  const std::string& unit(const std::string& name) const;

  /// Folds retained samples with fromNs <= t <= toNs.
  WindowAgg aggregate(const std::string& name, std::uint64_t fromNs,
                      std::uint64_t toNs) const;

  /// Grids the retained samples into fixed `windowNs` buckets aligned to
  /// the oldest retained tick; each bucket is a WindowAgg (empty buckets
  /// are skipped). windowNs == 0 throws.
  struct RollupBucket {
    std::uint64_t startNs = 0;
    WindowAgg agg;
  };
  std::vector<RollupBucket> rollup(const std::string& name,
                                   std::uint64_t windowNs) const;

  /// Advisory sampling cadence (set by whoever drives sampleAll); used by
  /// exports and the MO lint pass. 0 = unset.
  void setSampleIntervalNs(std::uint64_t ns) { sampleIntervalNs_ = ns; }
  std::uint64_t sampleIntervalNs() const { return sampleIntervalNs_; }

  /// Wide CSV: header `t_ns,<series>...`, one row per retained tick.
  std::string renderCsv() const;
  /// Strict JSON: interval, tick counts, per-series unit/all-time stats and
  /// the retained [t, v] samples.
  std::string renderJson() const;

 private:
  struct Series {
    std::string name;
    std::string unit;
    Probe probe;
    std::deque<double> values;  // aligned with tickTimes_
    OnlineStats allTime;
  };

  const Series& seriesOrThrow(const std::string& name) const;

  std::size_t capacity_;
  std::vector<Series> series_;  // registration order
  std::deque<std::uint64_t> tickTimes_;
  std::uint64_t totalTicks_ = 0;
  std::uint64_t droppedTicks_ = 0;
  std::uint64_t sampleIntervalNs_ = 0;
};

}  // namespace vfpga::obs::monitor
