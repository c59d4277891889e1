// Small statistics helpers: min/avg/max accumulators (the paper reports load
// imbalance as the min, average and max attained by the parallel processes),
// parallel-efficiency helpers, and a fixed-width histogram.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace pastis::util {

/// Running min / average / max over a stream of samples. Mirrors the
/// "three points on a vertical line" presentation of Fig. 7 in the paper.
struct MinAvgMax {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  std::uint64_t count = 0;

  void add(double v) {
    min = std::min(min, v);
    max = std::max(max, v);
    sum += v;
    ++count;
  }

  [[nodiscard]] double avg() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Load imbalance as max/avg; 1.0 is perfectly balanced. Returns 1.0 for
  /// empty or all-zero streams so callers can report it unconditionally.
  [[nodiscard]] double imbalance() const {
    const double a = avg();
    return a <= 0.0 ? 1.0 : max / a;
  }

  /// Imbalance expressed as the percentage the paper uses in Table IV:
  /// (max/avg - 1) * 100.
  [[nodiscard]] double imbalance_pct() const {
    return (imbalance() - 1.0) * 100.0;
  }

  /// Combines two accumulators as if their streams had been interleaved.
  /// Empty sides are explicit no-ops/adoptions so an empty accumulator's
  /// ±infinity sentinels never flow through min/max arithmetic — exporters
  /// (obs::MetricsRegistry JSON) additionally emit null for min/max when
  /// count == 0, since JSON has no Infinity literal.
  void merge(const MinAvgMax& o) {
    if (o.count == 0) return;
    if (count == 0) {
      *this = o;
      return;
    }
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    sum += o.sum;
    count += o.count;
  }
};

/// min/avg/max over a container in one call.
template <typename Range>
[[nodiscard]] MinAvgMax min_avg_max(const Range& values) {
  MinAvgMax m;
  for (const auto& v : values) m.add(static_cast<double>(v));
  return m;
}

/// Parallel efficiency of strong scaling: t_base * p_base / (t * p).
[[nodiscard]] inline double strong_scaling_efficiency(double t_base,
                                                      std::uint64_t p_base,
                                                      double t,
                                                      std::uint64_t p) {
  if (t <= 0.0 || p == 0) return 0.0;
  return (t_base * static_cast<double>(p_base)) / (t * static_cast<double>(p));
}

/// Parallel efficiency of weak scaling (work grows with p): t_base / t.
[[nodiscard]] inline double weak_scaling_efficiency(double t_base, double t) {
  return t <= 0.0 ? 0.0 : t_base / t;
}

/// Simple fixed-width histogram used by the dataset generator's self-report.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), counts_(bins, 0) {}

  void add(double v) {
    if (counts_.empty()) return;
    const double t = (v - lo_) / (hi_ - lo_);
    auto idx = static_cast<std::int64_t>(t * static_cast<double>(counts_.size()));
    idx = std::clamp<std::int64_t>(idx, 0,
                                   static_cast<std::int64_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
  }

  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }
  [[nodiscard]] double bin_low(std::size_t i) const {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                     static_cast<double>(counts_.size());
  }

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace pastis::util
