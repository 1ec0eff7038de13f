#pragma once
// Metrics registry: named counters, gauges, and log-bucket histograms.
//
// Components record into the current obs::Context's registry through the
// ZHUGE_METRIC_* macros below, which compile to nothing when
// ZHUGE_OBS_ENABLED is 0 and cost a single cold-bool branch when the
// runtime switch is off. The registry itself is an ordinary object, so
// tests and tools can also build private instances.
//
// Naming convention (see DESIGN.md "Observability"): dot-separated
// lowercase paths, component first, unit suffix on measured quantities —
// e.g. `queue.fifo.sojourn_us`, `wireless.wifi.retries`,
// `fortune.predicted_ms`, `app.flow0.goodput_bps`.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/settings.hpp"

namespace zhuge::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Bucket layout for Histogram: log-scale buckets from `lo` to `hi` with
/// `buckets_per_decade` buckets per factor of 10, plus an underflow and an
/// overflow bucket. The default spans 1e-3 .. 1e9, wide enough for any
/// quantity this codebase records (microseconds to bits/second).
struct HistogramSpec {
  double lo = 1e-3;
  double hi = 1e9;
  int buckets_per_decade = 5;
};

/// Fixed log-scale-bucket histogram with exact count/sum/min/max and
/// interpolated quantiles.
class Histogram {
 public:
  explicit Histogram(HistogramSpec spec = {}) : spec_(spec) {
    const double decades = std::log10(spec_.hi / spec_.lo);
    n_log_buckets_ = static_cast<std::size_t>(
        std::ceil(decades * static_cast<double>(spec_.buckets_per_decade)));
    // [0] underflow (v < lo), [1..n] log buckets, [n+1] overflow (v >= hi).
    counts_.assign(n_log_buckets_ + 2, 0);
  }

  void observe(double v) {
    ++counts_[bucket_index(v)];
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Index of the bucket `v` falls into (0 = underflow, last = overflow).
  [[nodiscard]] std::size_t bucket_index(double v) const {
    if (!(v >= spec_.lo)) return 0;  // also catches NaN
    if (v >= spec_.hi) return n_log_buckets_ + 1;
    const auto i = static_cast<std::size_t>(
        std::log10(v / spec_.lo) * static_cast<double>(spec_.buckets_per_decade));
    return std::min(i, n_log_buckets_ - 1) + 1;
  }

  /// Lower edge of bucket i; bucket 0 has edge 0, the overflow bucket `hi`.
  [[nodiscard]] double bucket_lower(std::size_t i) const {
    if (i == 0) return 0.0;
    return spec_.lo * std::pow(10.0, static_cast<double>(i - 1) /
                                         static_cast<double>(spec_.buckets_per_decade));
  }
  [[nodiscard]] double bucket_upper(std::size_t i) const {
    if (i >= n_log_buckets_ + 1) return std::numeric_limits<double>::infinity();
    return spec_.lo * std::pow(10.0, static_cast<double>(i) /
                                         static_cast<double>(spec_.buckets_per_decade));
  }
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket_value(std::size_t i) const { return counts_[i]; }

  /// Quantile estimate: geometric interpolation within the containing
  /// bucket, clamped to the exact observed min/max.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const double before = static_cast<double>(cum);
      cum += counts_[i];
      if (static_cast<double>(cum) < target) continue;
      const double frac =
          (target - before) / static_cast<double>(counts_[i]);
      const double lo = std::max(bucket_lower(i), min_);
      const double hi = std::min(
          std::isinf(bucket_upper(i)) ? max_ : bucket_upper(i), max_);
      if (lo <= 0.0 || hi <= lo) return std::clamp(hi, min_, max_);
      return std::clamp(lo * std::pow(hi / lo, frac), min_, max_);
    }
    return max_;
  }

  [[nodiscard]] const HistogramSpec& spec() const { return spec_; }

  /// Fold `other` into this histogram. With identical bucket layouts the
  /// merge is exact (bucket-wise count addition); with mismatched layouts
  /// each foreign bucket is re-observed at its lower edge, weighted by its
  /// count — deterministic, but quantised to this histogram's buckets.
  void merge(const Histogram& other) {
    if (other.count_ == 0) return;
    // zlint-allow(float-equality): bucket layouts are interchangeable
    // only when the specs are exactly identical; tolerance would be wrong.
    const bool same_edges = spec_.lo == other.spec_.lo && spec_.hi == other.spec_.hi;
    if (counts_.size() == other.counts_.size() && same_edges &&
        spec_.buckets_per_decade == other.spec_.buckets_per_decade) {
      for (std::size_t i = 0; i < counts_.size(); ++i) {
        counts_[i] += other.counts_[i];
      }
    } else {
      for (std::size_t i = 0; i < other.counts_.size(); ++i) {
        const std::uint64_t n = other.counts_[i];
        if (n > 0) counts_[bucket_index(other.bucket_lower(i))] += n;
      }
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  HistogramSpec spec_;
  std::size_t n_log_buckets_ = 0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::max();
  double max_ = std::numeric_limits<double>::lowest();
};

/// Name -> metric map. std::map keeps export order deterministic and
/// references stable across inserts; heterogeneous lookup avoids per-call
/// string allocation on hot paths.
class Registry {
 public:
  Counter& counter(std::string_view name) { return find(counters_, name); }
  Gauge& gauge(std::string_view name) { return find(gauges_, name); }
  Histogram& histogram(std::string_view name, HistogramSpec spec = {}) {
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second;
    return histograms_.emplace(std::string(name), Histogram(spec)).first->second;
  }

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

  /// Fold `other` in after the records already held: counters add,
  /// gauges take `other`'s value (the later write), histograms merge
  /// bucket-exactly (Histogram::merge).
  void merge(const Registry& other) {
    for (const auto& [name, c] : other.counters_) counter(name).inc(c.value());
    for (const auto& [name, g] : other.gauges_) gauge(name).set(g.value());
    for (const auto& [name, h] : other.histograms_) {
      const auto it = histograms_.find(name);
      if (it == histograms_.end()) {
        histograms_.emplace(name, h);
      } else {
        it->second.merge(h);
      }
    }
  }

  void clear() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

 private:
  template <typename Map>
  static typename Map::mapped_type& find(Map& m, std::string_view name) {
    const auto it = m.find(name);
    if (it != m.end()) return it->second;
    return m.emplace(std::string(name), typename Map::mapped_type{}).first->second;
  }

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// The current context's registry (obs/context.hpp), used by the
/// ZHUGE_METRIC_* macros.
Registry& metrics();

}  // namespace zhuge::obs

#if ZHUGE_OBS_ENABLED
#define ZHUGE_METRIC_INC(name)                                        \
  do {                                                                \
    if (::zhuge::obs::metrics_enabled()) ::zhuge::obs::metrics().counter(name).inc(); \
  } while (0)
#define ZHUGE_METRIC_ADD(name, n)                                     \
  do {                                                                \
    if (::zhuge::obs::metrics_enabled())                              \
      ::zhuge::obs::metrics().counter(name).inc(static_cast<std::uint64_t>(n)); \
  } while (0)
#define ZHUGE_METRIC_SET(name, v)                                     \
  do {                                                                \
    if (::zhuge::obs::metrics_enabled())                              \
      ::zhuge::obs::metrics().gauge(name).set(static_cast<double>(v)); \
  } while (0)
#define ZHUGE_METRIC_OBSERVE(name, v)                                 \
  do {                                                                \
    if (::zhuge::obs::metrics_enabled())                              \
      ::zhuge::obs::metrics().histogram(name).observe(static_cast<double>(v)); \
  } while (0)
#else
#define ZHUGE_METRIC_INC(name) do {} while (0)
#define ZHUGE_METRIC_ADD(name, n) do {} while (0)
#define ZHUGE_METRIC_SET(name, v) do {} while (0)
#define ZHUGE_METRIC_OBSERVE(name, v) do {} while (0)
#endif
