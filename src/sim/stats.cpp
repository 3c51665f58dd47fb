#include "sim/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace vfpga {

void OnlineStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  assert(hi > lo);
  assert(buckets > 0);
}

void Histogram::add(double x) {
  std::size_t idx;
  if (x < lo_) {
    idx = 0;
  } else if (x >= hi_) {
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
  ++total_;
}

double Histogram::bucketLow(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bucketHigh(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double acc = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    acc += static_cast<double>(counts_[i]);
    // The empty-bucket guard matters only at q == 0 (target 0): without it
    // the scan would report the midpoint of bucket 0 even when every sample
    // clamped into a later bucket. With it, q == 0 is the midpoint of the
    // first non-empty bucket — the bucket holding the smallest sample.
    if (counts_[i] > 0 && acc >= target) {
      return lo_ + width_ * (static_cast<double>(i) + 0.5);
    }
  }
  return hi_;
}

}  // namespace vfpga
