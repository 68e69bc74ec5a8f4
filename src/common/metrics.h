#ifndef GAL_COMMON_METRICS_H_
#define GAL_COMMON_METRICS_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.h"

namespace gal {

/// Thread-safe additive counter. Engines expose one per interesting
/// quantity (messages sent, bytes moved, tasks stolen, ...); benches read
/// them to print the paper's table rows.
class Counter {
 public:
  Counter() : value_(0) {}

  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_;
};

/// Tracks the maximum value ever observed (e.g. peak memory in flight).
class MaxGauge {
 public:
  MaxGauge() : value_(0) {}

  void Observe(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_;
};

/// Thread-safe sample recorder with quantile readout. Used for per-stage
/// span timing (pipeline stages, training phases): every Observe is one
/// span's duration, and p50/p95/max summarize the distribution. Samples
/// are kept verbatim, so this is meant for per-batch / per-epoch spans,
/// not per-edge hot paths.
class Histogram {
 public:
  void Observe(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(v);
    sum_ += v;
  }

  size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_.size();
  }

  double sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }

  double Max() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_.empty()
               ? 0.0
               : *std::max_element(samples_.begin(), samples_.end());
  }

  /// Linear-interpolated quantile, q in [0, 1]. Empty histogram -> 0.
  double Quantile(double q) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.empty()) return 0.0;
    std::vector<double> sorted(samples_);
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }

  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.clear();
    sum_ = 0.0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
  double sum_ = 0.0;
};

/// Compact summary of one named span histogram — what reports carry
/// instead of the raw samples.
struct StageTimingStat {
  std::string name;
  double total_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double max_seconds = 0.0;

  static StageTimingStat FromHistogram(const std::string& name,
                                       const Histogram& h) {
    return {name, h.sum(), h.P50(), h.P95(), h.Max()};
  }
};

/// RAII span: times its scope and records the duration into a Histogram.
///
///   { ScopedSpan span(&forward_hist); model.Forward(...); }
class ScopedSpan {
 public:
  explicit ScopedSpan(Histogram* sink) : sink_(sink) {}
  ~ScopedSpan() {
    if (sink_ != nullptr) sink_->Observe(timer_.ElapsedSeconds());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Histogram* sink_;
  Timer timer_;
};

}  // namespace gal

#endif  // GAL_COMMON_METRICS_H_
