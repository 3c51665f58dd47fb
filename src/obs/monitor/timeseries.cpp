#include "obs/monitor/timeseries.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "obs/json.hpp"

namespace vfpga::obs::monitor {

namespace {

double readField(const Metric& m, SeriesField field) {
  switch (m.kind()) {
    case MetricKind::kCounter: {
      const auto v = static_cast<double>(std::get<Counter>(m.value).value());
      // A counter has one scalar; every field reads it (count == value).
      return v;
    }
    case MetricKind::kGauge:
      return std::get<Gauge>(m.value).value();
    case MetricKind::kStats: {
      const OnlineStats& s = std::get<StatsMetric>(m.value).stats();
      switch (field) {
        case SeriesField::kCount: return static_cast<double>(s.count());
        case SeriesField::kSum: return s.sum();
        case SeriesField::kMin: return s.count() > 0 ? s.min() : 0.0;
        case SeriesField::kMax: return s.count() > 0 ? s.max() : 0.0;
        case SeriesField::kValue:
        case SeriesField::kMean:
        case SeriesField::kP50:
        case SeriesField::kP90:
        case SeriesField::kP99:
          return s.count() > 0 ? s.mean() : 0.0;
      }
      return 0.0;
    }
    case MetricKind::kHistogram: {
      const HistogramMetric& hm = std::get<HistogramMetric>(m.value);
      const Histogram& h = hm.histogram();
      switch (field) {
        case SeriesField::kCount: return static_cast<double>(h.total());
        case SeriesField::kSum: return hm.sum();
        case SeriesField::kP50: return h.percentile(50.0);
        case SeriesField::kP90: return h.percentile(90.0);
        case SeriesField::kP99: return h.percentile(99.0);
        case SeriesField::kMin:
          return h.total() > 0 ? h.percentile(0.0) : 0.0;
        case SeriesField::kMax:
          return h.total() > 0 ? h.percentile(100.0) : 0.0;
        case SeriesField::kValue:
        case SeriesField::kMean:
          return h.total() > 0
                     ? hm.sum() / static_cast<double>(h.total())
                     : 0.0;
      }
      return 0.0;
    }
  }
  return 0.0;
}

}  // namespace

TimeSeriesStore::TimeSeriesStore(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ < 2) {
    throw std::logic_error("TimeSeriesStore capacity must be >= 2");
  }
}

void TimeSeriesStore::addSeries(std::string name, Probe probe,
                                std::string unit) {
  if (!probe) throw std::logic_error("series " + name + " has a null probe");
  if (totalTicks_ != 0) {
    throw std::logic_error("series " + name +
                           " registered after sampling started");
  }
  if (hasSeries(name)) {
    throw std::logic_error("duplicate series: " + name);
  }
  Series s;
  s.name = std::move(name);
  s.unit = std::move(unit);
  s.probe = std::move(probe);
  series_.push_back(std::move(s));
}

void TimeSeriesStore::bindMetric(std::string name,
                                 const MetricsRegistry& registry,
                                 std::string metric, Labels labels,
                                 SeriesField field, std::string unit) {
  const MetricsRegistry* reg = &registry;
  addSeries(
      std::move(name),
      [reg, metric = std::move(metric), labels = std::move(labels), field]() {
        const Metric* m = reg->find(metric, labels);
        return m != nullptr ? readField(*m, field) : 0.0;
      },
      std::move(unit));
}

void TimeSeriesStore::sampleAll(std::uint64_t atNs) {
  if (!tickTimes_.empty() && atNs <= tickTimes_.back()) {
    throw std::logic_error("sampleAll tick times must be strictly increasing");
  }
  if (tickTimes_.size() == capacity_) {
    tickTimes_.pop_front();
    for (Series& s : series_) s.values.pop_front();
    ++droppedTicks_;
  }
  tickTimes_.push_back(atNs);
  for (Series& s : series_) {
    const double v = s.probe();
    s.values.push_back(v);
    s.allTime.add(v);
  }
  ++totalTicks_;
}

bool TimeSeriesStore::hasSeries(const std::string& name) const {
  return std::any_of(series_.begin(), series_.end(),
                     [&](const Series& s) { return s.name == name; });
}

std::vector<std::string> TimeSeriesStore::seriesNames() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const Series& s : series_) names.push_back(s.name);
  return names;
}

std::uint64_t TimeSeriesStore::lastTickNs() const {
  return tickTimes_.empty() ? 0 : tickTimes_.back();
}

const TimeSeriesStore::Series& TimeSeriesStore::seriesOrThrow(
    const std::string& name) const {
  for (const Series& s : series_) {
    if (s.name == name) return s;
  }
  throw std::logic_error("unknown series: " + name);
}

const std::deque<double>& TimeSeriesStore::values(
    const std::string& name) const {
  return seriesOrThrow(name).values;
}

double TimeSeriesStore::latest(const std::string& name) const {
  const Series& s = seriesOrThrow(name);
  return s.values.empty() ? 0.0 : s.values.back();
}

const OnlineStats& TimeSeriesStore::allTime(const std::string& name) const {
  return seriesOrThrow(name).allTime;
}

const std::string& TimeSeriesStore::unit(const std::string& name) const {
  return seriesOrThrow(name).unit;
}

WindowAgg TimeSeriesStore::aggregate(const std::string& name,
                                     std::uint64_t fromNs,
                                     std::uint64_t toNs) const {
  const Series& s = seriesOrThrow(name);
  WindowAgg agg;
  double sum = 0.0;
  for (std::size_t i = 0; i < tickTimes_.size(); ++i) {
    const std::uint64_t t = tickTimes_[i];
    if (t < fromNs || t > toNs) continue;
    const double v = s.values[i];
    if (agg.count == 0) {
      agg.min = agg.max = v;
    } else {
      agg.min = std::min(agg.min, v);
      agg.max = std::max(agg.max, v);
    }
    sum += v;
    agg.last = v;
    ++agg.count;
  }
  if (agg.count > 0) agg.mean = sum / static_cast<double>(agg.count);
  return agg;
}

std::vector<TimeSeriesStore::RollupBucket> TimeSeriesStore::rollup(
    const std::string& name, std::uint64_t windowNs) const {
  if (windowNs == 0) throw std::logic_error("rollup window must be > 0");
  const Series& s = seriesOrThrow(name);
  std::vector<RollupBucket> buckets;
  if (tickTimes_.empty()) return buckets;
  const std::uint64_t base = tickTimes_.front();
  double sum = 0.0;
  for (std::size_t i = 0; i < tickTimes_.size(); ++i) {
    const std::uint64_t start =
        base + ((tickTimes_[i] - base) / windowNs) * windowNs;
    if (buckets.empty() || buckets.back().startNs != start) {
      buckets.push_back({start, {}});
      sum = 0.0;
    }
    WindowAgg& agg = buckets.back().agg;
    const double v = s.values[i];
    if (agg.count == 0) {
      agg.min = agg.max = v;
    } else {
      agg.min = std::min(agg.min, v);
      agg.max = std::max(agg.max, v);
    }
    sum += v;
    agg.last = v;
    ++agg.count;
    agg.mean = sum / static_cast<double>(agg.count);
  }
  return buckets;
}

std::string TimeSeriesStore::renderCsv() const {
  std::ostringstream os;
  os << "t_ns";
  for (const Series& s : series_) os << "," << s.name;
  os << "\n";
  for (std::size_t i = 0; i < tickTimes_.size(); ++i) {
    os << tickTimes_[i];
    for (const Series& s : series_) {
      os << "," << formatDouble(s.values[i]);
    }
    os << "\n";
  }
  return os.str();
}

std::string TimeSeriesStore::renderJson() const {
  std::ostringstream os;
  os << "{\n  \"sample_interval_ns\": " << sampleIntervalNs_
     << ",\n  \"ticks_total\": " << totalTicks_
     << ",\n  \"ticks_retained\": " << tickTimes_.size()
     << ",\n  \"ticks_dropped\": " << droppedTicks_ << ",\n  \"series\": [";
  bool firstSeries = true;
  for (const Series& s : series_) {
    os << (firstSeries ? "\n" : ",\n");
    firstSeries = false;
    os << "    {\"name\": \"" << jsonEscape(s.name) << "\", \"unit\": \""
       << jsonEscape(s.unit)
       << "\", \"count\": " << s.allTime.count() << ", \"min\": "
       << formatDouble(s.allTime.count() > 0 ? s.allTime.min() : 0.0)
       << ", \"max\": "
       << formatDouble(s.allTime.count() > 0 ? s.allTime.max() : 0.0)
       << ", \"mean\": "
       << formatDouble(s.allTime.count() > 0 ? s.allTime.mean() : 0.0)
       << ", \"samples\": [";
    for (std::size_t i = 0; i < tickTimes_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "[" << tickTimes_[i] << ", "
         << formatDouble(s.values[i]) << "]";
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace vfpga::obs::monitor
