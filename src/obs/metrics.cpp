#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace pastis::obs {

namespace {

/// JSON has no Infinity/NaN: non-finite values export as null.
void append_json_number(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  std::ostringstream n;
  n.precision(17);
  n << v;
  os << n.str();
}

void append_json_string(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

// ---- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<double> bucket_bounds)
    : bounds_(std::move(bucket_bounds)) {
  if (bounds_.empty()) bounds_ = default_latency_bounds();
  std::sort(bounds_.begin(), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);  // + overflow bucket
}

std::vector<double> Histogram::default_latency_bounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0};
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto b = static_cast<std::size_t>(it - bounds_.begin());
  std::lock_guard lock(mutex_);
  ++counts_[b];
  ++count_;
  sum_ += v;
  if (count_ == 1) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  std::lock_guard lock(mutex_);
  s.counts = counts_;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  return s;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const auto next = seen + counts[b];
    if (static_cast<double>(next) >= rank) {
      // Interpolate within the landing bucket, clamped to the exact
      // observed range (tight for the first/last buckets, where the
      // nominal bucket edges are -inf / +inf).
      const double lo = b == 0 ? min : std::max(min, bounds[b - 1]);
      const double hi = b < bounds.size() ? std::min(max, bounds[b]) : max;
      const double frac =
          counts[b] == 0
              ? 0.0
              : (rank - static_cast<double>(seen)) /
                    static_cast<double>(counts[b]);
      return std::clamp(lo + (hi - lo) * frac, min, max);
    }
    seen = next;
  }
  return max;
}

// ---- MetricsRegistry --------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::span<const double> bounds) {
  std::lock_guard lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(
        std::vector<double>(bounds.begin(), bounds.end()));
  }
  return *slot;
}

MinAvgMaxMetric& MetricsRegistry::min_avg_max(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = min_avg_max_[name];
  if (!slot) slot = std::make_unique<MinAvgMaxMetric>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->snapshot();
  for (const auto& [name, m] : min_avg_max_) {
    s.min_avg_max[name] = m->snapshot();
  }
  return s;
}

std::string MetricsRegistry::to_json() const {
  const MetricsSnapshot s = snapshot();
  std::ostringstream os;
  os << "{\n  \"schema\": \"pastis.metrics.v1\",\n";

  const auto scalar_section = [&](const char* key,
                                  const std::map<std::string, double>& m,
                                  bool trailing_comma) {
    os << "  \"" << key << "\": {";
    bool first = true;
    for (const auto& [name, v] : m) {
      os << (first ? "\n    " : ",\n    ");
      append_json_string(os, name);
      os << ": ";
      append_json_number(os, v);
      first = false;
    }
    os << (first ? "}" : "\n  }") << (trailing_comma ? ",\n" : "\n");
  };
  scalar_section("counters", s.counters, true);
  scalar_section("gauges", s.gauges, true);

  os << "  \"histograms\": {";
  {
    bool first = true;
    for (const auto& [name, h] : s.histograms) {
      os << (first ? "\n    " : ",\n    ");
      append_json_string(os, name);
      os << ": {\"count\": " << h.count << ", \"sum\": ";
      append_json_number(os, h.sum);
      const auto opt = [&](const char* k, double v) {
        os << ", \"" << k << "\": ";
        if (h.count == 0) {
          os << "null";  // empty histogram: no observed range / quantiles
        } else {
          append_json_number(os, v);
        }
      };
      opt("min", h.min);
      opt("max", h.max);
      opt("p50", h.quantile(0.50));
      opt("p95", h.quantile(0.95));
      opt("p99", h.quantile(0.99));
      os << ", \"buckets\": [";
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        if (b > 0) os << ", ";
        os << "{\"le\": ";
        if (b < h.bounds.size()) {
          append_json_number(os, h.bounds[b]);
        } else {
          os << "null";  // the +inf overflow bucket
        }
        os << ", \"count\": " << h.counts[b] << "}";
      }
      os << "]}";
      first = false;
    }
    os << (first ? "}," : "\n  },") << "\n";
  }

  os << "  \"min_avg_max\": {";
  {
    bool first = true;
    for (const auto& [name, m] : s.min_avg_max) {
      os << (first ? "\n    " : ",\n    ");
      append_json_string(os, name);
      os << ": {\"count\": " << m.count << ", \"min\": ";
      // count == 0 leaves min/max at ±infinity — exported as null, never
      // as an (invalid) Infinity literal.
      if (m.count == 0) {
        os << "null, \"max\": null";
      } else {
        append_json_number(os, m.min);
        os << ", \"max\": ";
        append_json_number(os, m.max);
      }
      os << ", \"avg\": ";
      append_json_number(os, m.avg());
      os << ", \"imbalance_pct\": ";
      if (m.count == 0) {
        os << "null";
      } else {
        append_json_number(os, m.imbalance_pct());
      }
      os << "}";
      first = false;
    }
    os << (first ? "}" : "\n  }") << "\n";
  }
  os << "}\n";
  return os.str();
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << to_json();
}

}  // namespace pastis::obs
