// Online statistics accumulators used by the metrics layer and benchmarks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace vfpga {

/// Welford online accumulator: count, mean, variance, min, max in O(1) space.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance; 0 for < 2 samples
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel-friendly).
  void merge(const OnlineStats& other);

  void reset() { *this = OnlineStats{}; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp into the
/// first/last bucket so totals always match the sample count.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);

  std::size_t bucketCount() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  std::uint64_t total() const { return total_; }
  double bucketLow(std::size_t i) const;
  double bucketHigh(std::size_t i) const;

  /// Approximate quantile (q in [0,1]) using bucket midpoints. Pinned edge
  /// semantics (tested in obs_test.cpp):
  ///  - empty histogram: returns `lo` for every q;
  ///  - q outside [0,1] clamps;
  ///  - q == 0 returns the midpoint of the first *non-empty* bucket (the
  ///    bucket holding the smallest sample — in particular, when every
  ///    sample clamped into the overflow bucket, q == 0 reports that
  ///    bucket, not bucket 0);
  ///  - q == 1 returns the midpoint of the last non-empty bucket;
  ///  - single sample: every q returns that sample's bucket midpoint.
  double quantile(double q) const;

  /// Approximate percentile (p in [0,100]); p outside the range clamps.
  /// Convenience over quantile() for exporters (p50/p90/p99); shares the
  /// edge semantics documented on quantile().
  double percentile(double p) const { return quantile(p / 100.0); }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace vfpga
