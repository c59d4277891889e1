// Thread-safe metrics registry: named counters, gauges, fixed-bucket
// latency histograms (p50/p95/p99) and min/avg/max accumulators (the
// paper's load-imbalance presentation, util::MinAvgMax).
//
// Design constraints (from the serving tier this feeds):
//   * cheap when off — instrumented code holds an obs::Telemetry whose
//     metrics pointer is null by default; every sample site is one branch;
//   * cheap when on — counters/gauges are lock-free atomics; histograms
//     and min/avg/max take a per-metric mutex (sampled per batch /
//     iteration / stage, never per nonzero);
//   * snapshottable mid-run — snapshot() can be polled from any thread
//     while samples keep landing (a soak bench polling its serving loop);
//   * stable export — to_json() emits the versioned `pastis.metrics.v1`
//     schema bench_common consumes. Empty histograms / accumulators export
//     null min/max/quantiles, never ±infinity (JSON has no Infinity).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace pastis::obs {

/// Monotonically increasing double (Prometheus counter semantics; doubles
/// so byte- and second-valued totals share one type — integral totals stay
/// exact up to 2^53).
class Counter {
 public:
  void add(double d = 1.0) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double d) { v_.store(d, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with exact min/max/sum/count. Quantiles are
/// interpolated within the landing bucket and clamped to the observed
/// min/max, so p50/p95/p99 are always inside the sampled range.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bucket_bounds);

  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;        // upper bounds; +inf bucket implicit
    std::vector<std::uint64_t> counts; // bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // meaningless when count == 0 (exporters emit null)
    double max = 0.0;

    [[nodiscard]] double quantile(double q) const;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Default latency bucketing: decades from 1 µs to 100 s.
  [[nodiscard]] static std::vector<double> default_latency_bounds();

 private:
  mutable std::mutex mutex_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mutex-wrapped util::MinAvgMax (the Fig. 7 / Table IV presentation).
class MinAvgMaxMetric {
 public:
  void add(double v) {
    std::lock_guard lock(mutex_);
    acc_.add(v);
  }
  void merge(const util::MinAvgMax& o) {
    std::lock_guard lock(mutex_);
    acc_.merge(o);
  }
  [[nodiscard]] util::MinAvgMax snapshot() const {
    std::lock_guard lock(mutex_);
    return acc_;
  }

 private:
  mutable std::mutex mutex_;
  util::MinAvgMax acc_;
};

/// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;
  std::map<std::string, util::MinAvgMax> min_avg_max;
};

class MetricsRegistry {
 public:
  /// Lookup-or-create; returned references stay valid for the registry's
  /// lifetime (metrics are never removed). All thread-safe.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies only on first creation (empty = default latency
  /// decades); later lookups by the same name ignore it.
  Histogram& histogram(const std::string& name,
                       std::span<const double> bounds = {});
  MinAvgMaxMetric& min_avg_max(const std::string& name);

  /// Consistent-enough copy for mid-run polling: each metric is copied
  /// under its own lock while samples keep landing elsewhere.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Versioned machine-readable export (`pastis.metrics.v1`): empty
  /// histograms / accumulators get null min/max/quantiles.
  [[nodiscard]] std::string to_json() const;
  void write_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;  // guards the maps, not the metrics
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<MinAvgMaxMetric>> min_avg_max_;
};

}  // namespace pastis::obs
