#pragma once
// Offline sample accumulators: percentiles, tail ratios, CDF export,
// histograms. Used by the benchmark harness to print the paper's rows.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace zhuge::stats {

/// Accumulates double samples; answers quantile / tail-ratio queries.
/// Order statistics are read by selection, never by a full sort: a
/// quantile is one std::nth_element for its low order statistic plus a
/// minimum scan of the part above it for the interpolation partner, the
/// tail ratios count, and min()/max() scan. A quantile read permutes the
/// samples in place, so a Distribution is a multiset and its sample order
/// is never part of its value. Samples are ranked by before(), under
/// which -0.0 precedes +0.0: equal-ranked samples are then bit-identical,
/// and every order-statistic read is a function of the multiset alone.
/// The mean is a running sum kept by add()/add_all(), so it depends on
/// the order samples were added in but never on earlier reads. NaN
/// samples are not supported.
class Distribution {
 public:
  void add(double v) {
    samples_.push_back(v);
    sum_ += v;
  }

  /// Add every sample of `other` (the multiset union).
  void add_all(const Distribution& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sum_ += other.sum_;
  }

  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  [[nodiscard]] double mean() const {
    return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
  }

  /// Quantile by linear interpolation between the order statistics at
  /// floor(q * (n - 1)) and the one after it; q in [0, 1].
  [[nodiscard]] double quantile(double q) const {
    if (samples_.empty()) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const std::size_t n = samples_.size();
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    const auto at = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(samples_.begin(), at, samples_.end(), before);
    // After the selection every sample past `at` ranks at or above it, so
    // the next order statistic is their minimum.
    const double hi = lo + 1 < n ? *std::min_element(at + 1, samples_.end(), before)
                                 : *at;
    return *at * (1.0 - frac) + hi * frac;
  }

  [[nodiscard]] double min() const {
    return samples_.empty() ? 0.0 : *std::min_element(samples_.begin(), samples_.end(), before);
  }
  [[nodiscard]] double max() const {
    return samples_.empty() ? 0.0 : *std::max_element(samples_.begin(), samples_.end(), before);
  }

  /// Fraction of samples strictly above `threshold` (the paper's tail
  /// ratios, e.g. P(RTT > 200 ms)).
  [[nodiscard]] double ratio_above(double threshold) const {
    return fraction([threshold](double v) { return threshold < v; });
  }

  /// Fraction of samples strictly below `threshold` (e.g. P(fps < 10)).
  [[nodiscard]] double ratio_below(double threshold) const {
    return fraction([threshold](double v) { return v < threshold; });
  }

  /// Complementary CDF value at x: P(sample > x).
  [[nodiscard]] double ccdf(double x) const { return ratio_above(x); }

  /// Every sample, in unspecified order (insertion order until the first
  /// quantile read, which permutes them).
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

  /// The strict total order samples are ranked by: numeric order, with
  /// -0.0 before +0.0 (the second clause holds for that pair alone).
  [[nodiscard]] static bool before(double a, double b) {
    return a < b || (std::signbit(a) && !std::signbit(b) && !(b < a));
  }

 private:
  template <typename Pred>
  [[nodiscard]] double fraction(Pred pred) const {
    if (samples_.empty()) return 0.0;
    const auto n = std::count_if(samples_.begin(), samples_.end(), pred);
    return static_cast<double>(n) / static_cast<double>(samples_.size());
  }

  mutable std::vector<double> samples_;
  double sum_ = 0.0;
};

/// Fixed-bin 2-D histogram used for the Fig. 19 estimated-vs-real heatmap.
class Heatmap2D {
 public:
  /// Log2-spaced bins from `lo` to `hi` on both axes (values clamped).
  Heatmap2D(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), bins_(bins), cells_(bins * bins, 0) {}

  void add(double x, double y) {
    ++cells_[bin(y) * bins_ + bin(x)];
  }

  /// Add `other`'s counts cell by cell; both must share lo, hi and bins.
  void merge(const Heatmap2D& other) {
    for (std::size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  }

  [[nodiscard]] std::size_t bin(double v) const {
    const double c = std::clamp(v, lo_, hi_);
    const double f = std::log2(c / lo_) / std::log2(hi_ / lo_);
    return std::min(bins_ - 1, static_cast<std::size_t>(f * static_cast<double>(bins_)));
  }

  /// Lower edge of bin i (log2 spacing).
  [[nodiscard]] double bin_edge(std::size_t i) const {
    return lo_ * std::pow(hi_ / lo_, static_cast<double>(i) / static_cast<double>(bins_));
  }

  [[nodiscard]] std::size_t bins() const { return bins_; }
  [[nodiscard]] std::uint64_t cell(std::size_t xi, std::size_t yi) const {
    return cells_[yi * bins_ + xi];
  }

  /// Row-normalised cell value (the paper normalises per real-delay row).
  [[nodiscard]] double cell_row_normalised(std::size_t xi, std::size_t yi) const {
    std::uint64_t row = 0;
    for (std::size_t x = 0; x < bins_; ++x) row += cells_[yi * bins_ + x];
    if (row == 0) return 0.0;
    return static_cast<double>(cells_[yi * bins_ + xi]) / static_cast<double>(row);
  }

 private:
  double lo_, hi_;
  std::size_t bins_;
  std::vector<std::uint64_t> cells_;
};

}  // namespace zhuge::stats
