// Unit tests for the statistics primitives: windowed estimators, offline
// distributions (and their order-free fingerprint digest), and the
// time-series degradation metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "app/sweep.hpp"
#include "sim/random.hpp"
#include "stats/distribution.hpp"
#include "stats/timeseries.hpp"
#include "stats/windowed.hpp"

namespace zhuge::stats {
namespace {

using sim::Duration;
using sim::TimePoint;
using namespace sim::literals;

TimePoint at(std::int64_t ms) { return TimePoint::zero() + Duration::millis(ms); }

TEST(WindowedRate, ComputesRateOverFullWindow) {
  WindowedRate r(40_ms);
  // 1000 bytes every 10 ms = 100 kB/s = 800 kbit/s.
  for (int i = 0; i <= 4; ++i) r.record(at(10 * i), 1000);
  // Window [0,40] holds samples at 0..40 => but t=0 evicted at cutoff.
  const auto rate = r.rate_bps(at(40));
  ASSERT_TRUE(rate.has_value());
  EXPECT_NEAR(*rate, 5000.0 * 8.0 / 0.040, 1e-6);
}

TEST(WindowedRate, QuietPeriodDragsRateDown) {
  WindowedRate r(40_ms);
  r.record(at(0), 4000);
  const double early = *r.rate_bps(at(10));
  const double late = *r.rate_bps(at(39));
  EXPECT_DOUBLE_EQ(early, late);  // denominator is the window, not the span
  EXPECT_FALSE(r.rate_bps(at(100)).has_value());  // everything evicted
}

TEST(WindowedRate, EvictsOldSamples) {
  WindowedRate r(40_ms);
  r.record(at(0), 1000);
  r.record(at(50), 1000);
  const auto rate = r.rate_bps(at(50));
  ASSERT_TRUE(rate.has_value());
  EXPECT_NEAR(*rate, 1000.0 * 8.0 / 0.040, 1e-6);  // only the new sample
}

TEST(WindowedMean, MeanAndEviction) {
  WindowedMean m(40_ms);
  m.record(at(0), 10.0);
  m.record(at(10), 20.0);
  EXPECT_DOUBLE_EQ(*m.mean(at(10)), 15.0);
  EXPECT_DOUBLE_EQ(*m.mean(at(45)), 20.0);  // first sample evicted
  EXPECT_FALSE(m.mean(at(100)).has_value());
}

TEST(WindowedMean, MaxMatchesBruteForceOverRandomizedChurn) {
  // max() is answered from a monotonic deque; this drives a randomized
  // record/evict sequence and checks it against a rescan of a shadow
  // window at every step.
  WindowedMean m(40_ms);
  std::deque<std::pair<TimePoint, double>> shadow;
  sim::Rng rng(99);
  TimePoint t = TimePoint::zero();
  for (int i = 0; i < 20'000; ++i) {
    // Bursty arrivals: mostly sub-ms steps, occasional multi-window gaps
    // that evict everything.
    t += Duration::micros(rng.uniform_int(100) == 0
                              ? 90'000
                              : 1 + rng.uniform_int(900));
    const double v = rng.uniform() * 1000.0 - 500.0;
    m.record(t, v);
    shadow.emplace_back(t, v);
    while (!shadow.empty() && shadow.front().first < t - 40_ms) {
      shadow.pop_front();
    }
    double brute = shadow.front().second;
    for (const auto& [st, sv] : shadow) brute = std::max(brute, sv);
    const auto got = m.max(t);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, brute) << "at step " << i;
  }
}

TEST(WindowedMean, MaxActivatedLateRebuildsFromLiveWindow) {
  // The max deque is lazily maintained; the first max() call — possibly
  // long after recording started — must rebuild it from the samples
  // still inside the window and stay consistent afterwards.
  WindowedMean m(40_ms);
  std::deque<std::pair<TimePoint, double>> shadow;
  sim::Rng rng(5);
  TimePoint t = TimePoint::zero();
  const auto push = [&] {
    t += Duration::micros(1 + rng.uniform_int(1500));
    const double v = rng.uniform() * 100.0;
    m.record(t, v);
    shadow.emplace_back(t, v);
    while (!shadow.empty() && shadow.front().first < t - 40_ms) {
      shadow.pop_front();
    }
  };
  const auto brute = [&] {
    double best = shadow.front().second;
    for (const auto& [st, sv] : shadow) best = std::max(best, sv);
    return best;
  };
  for (int i = 0; i < 500; ++i) push();  // max() never called: lazy off
  ASSERT_EQ(m.max(t), brute());          // first call rebuilds
  for (int i = 0; i < 500; ++i) {        // stays consistent incrementally
    push();
    ASSERT_EQ(m.max(t), brute());
  }
}

TEST(WindowedMean, LongRunMeanDoesNotDrift) {
  // The running sum gains ~1 ulp of residue per record/evict pair; the
  // periodic exact resummation must keep the reported mean within 1e-9
  // (relative) of a brute-force recomputation even after millions of
  // cycles with wildly mixed magnitudes.
  WindowedMean m(40_ms);
  std::deque<std::pair<TimePoint, double>> shadow;
  sim::Rng rng(7);
  TimePoint t = TimePoint::zero();
  for (int i = 0; i < 2'000'000; ++i) {
    t += Duration::micros(1 + rng.uniform_int(2000));
    // Alternate huge and tiny magnitudes so naive accumulation sheds
    // low-order bits as fast as possible.
    const double v = (i % 2 == 0) ? rng.uniform() * 1e9 : rng.uniform() * 1e-3;
    m.record(t, v);
    shadow.emplace_back(t, v);
    while (!shadow.empty() && shadow.front().first < t - 40_ms) {
      shadow.pop_front();
    }
  }
  double exact_sum = 0.0;
  for (const auto& [st, sv] : shadow) exact_sum += sv;
  const double exact_mean = exact_sum / static_cast<double>(shadow.size());
  const auto got = m.mean(t);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(m.sample_count(), shadow.size());
  EXPECT_NEAR(*got / exact_mean, 1.0, 1e-9);
}

TEST(WindowedMean, ResummationBoundaryExactUnderInterleavedEviction) {
  // The running sum is re-added exactly once every 4096 records. This
  // drives record/evict interleaving straight through several boundaries
  // — including a mass expiry landing *on* the resummation record and
  // one landing immediately before it — and checks three things:
  //  (a) on every record where the resummation just fired, the reported
  //      mean is BITWISE equal to an in-order shadow recomputation (the
  //      resummed sum and the shadow sum perform identical operations in
  //      identical order, so any divergence is a desync, not roundoff);
  //  (b) between boundaries the accumulated residue stays within 1e-9;
  //  (c) the monotonic max ring never desyncs from the sample window
  //      while evictions straddle the boundary.
  constexpr int kResum = 4096;  // mirrors WindowedMean::kResumPeriod
  WindowedMean m(40_ms);
  std::deque<std::pair<TimePoint, double>> shadow;
  sim::Rng rng(23);
  TimePoint t = TimePoint::zero();
  (void)m.max(t);  // activate the lazy max ring from record one

  for (int i = 1; i <= 3 * kResum + 64; ++i) {
    const int phase = i % kResum;
    if (phase == 0 || phase == kResum - 1) {
      // Mass expiry exactly at (and just before) the resummation record:
      // the window empties down to this one sample while the sum is
      // being rebuilt.
      t += Duration::millis(90);
    } else {
      t += Duration::micros(20);  // steady churn: window holds ~2000
    }
    const double v = (i % 2 == 0) ? rng.uniform() * 1e9 : rng.uniform() * 1e-3;
    m.record(t, v);
    shadow.emplace_back(t, v);
    while (!shadow.empty() && shadow.front().first < t - 40_ms) {
      shadow.pop_front();
    }

    ASSERT_EQ(m.sample_count(), shadow.size()) << "window desync at " << i;
    double exact = 0.0;
    double brute_max = shadow.front().second;
    for (const auto& [st, sv] : shadow) {
      exact += sv;
      brute_max = std::max(brute_max, sv);
    }
    const double exact_mean = exact / static_cast<double>(shadow.size());
    const auto got = m.mean(t);
    ASSERT_TRUE(got.has_value());
    if (phase == 0) {
      EXPECT_EQ(*got, exact_mean) << "resummed sum diverged at " << i;
    } else if (phase == kResum - 1) {
      // The mass expiry just cancelled ~2000 samples of ~1e9 magnitude
      // out of the running sum, leaving a survivor of ~1e-3: the shed
      // low-order bits can exceed the true mean many times over, so no
      // relative bound holds here — this record is exactly why the
      // periodic resummation exists (the next record, phase 0, is
      // checked bitwise above). The *absolute* residue must still stay
      // within the ulps accumulated since the last resummation.
      EXPECT_NEAR(*got * static_cast<double>(shadow.size()), exact, 8.0)
          << "cancellation residue unbounded at " << i;
    } else {
      EXPECT_NEAR(*got / exact_mean, 1.0, 1e-9) << "residue blew up at " << i;
    }
    const auto got_max = m.max(t);
    ASSERT_TRUE(got_max.has_value());
    EXPECT_EQ(*got_max, brute_max) << "max ring desync at " << i;
  }
}

TEST(WindowedRate, LongRunTotalsStayExact) {
  // total_bytes_ is integer arithmetic — after a million record/evict
  // cycles the reported rate must equal the brute-force rate exactly,
  // not merely approximately.
  WindowedRate r(40_ms);
  std::deque<std::pair<TimePoint, std::int64_t>> shadow;
  sim::Rng rng(11);
  TimePoint t = TimePoint::zero();
  for (int i = 0; i < 1'000'000; ++i) {
    t += Duration::micros(1 + rng.uniform_int(500));
    const auto bytes = static_cast<std::int64_t>(rng.uniform_int(1500));
    r.record(t, bytes);
    shadow.emplace_back(t, bytes);
    while (!shadow.empty() && shadow.front().first < t - 40_ms) {
      shadow.pop_front();
    }
  }
  std::int64_t exact_total = 0;
  for (const auto& [st, sb] : shadow) exact_total += sb;
  const auto got = r.rate_bps(t);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(r.sample_count(), shadow.size());
  EXPECT_EQ(*got, static_cast<double>(exact_total) * 8.0 / 0.040);
}

TEST(WindowedMax, TracksMaximumWithEviction) {
  WindowedMax m(40_ms);
  m.record(at(0), 5.0);
  m.record(at(10), 9.0);
  m.record(at(20), 3.0);
  EXPECT_DOUBLE_EQ(m.max(at(20)), 9.0);
  EXPECT_DOUBLE_EQ(m.max(at(55)), 3.0);  // 9.0 aged out
  EXPECT_DOUBLE_EQ(m.max(at(100), -1.0), -1.0);
}

TEST(WindowedMin, TracksMinimumWithEviction) {
  WindowedMin m(40_ms);
  m.record(at(0), 5.0);
  m.record(at(10), 2.0);
  m.record(at(20), 7.0);
  EXPECT_DOUBLE_EQ(*m.min(at(20)), 2.0);
  EXPECT_DOUBLE_EQ(*m.min(at(55)), 7.0);
  EXPECT_FALSE(m.min(at(200)).has_value());
}

TEST(WindowedSampler, SamplesOnlyFromWindow) {
  WindowedSampler s(40_ms);
  sim::Rng rng(1);
  s.record(at(0), 1.0);
  s.record(at(10), 2.0);
  for (int i = 0; i < 50; ++i) {
    const auto v = s.sample(at(20), rng);
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(*v == 1.0 || *v == 2.0);
  }
  for (int i = 0; i < 50; ++i) {
    const auto v = s.sample(at(45), rng);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 2.0);  // 1.0 aged out
  }
  EXPECT_FALSE(s.sample(at(100), rng).has_value());
}

TEST(WindowedSampler, MeanMatchesContents) {
  WindowedSampler s(1_s);
  s.record(at(0), 1.0);
  s.record(at(1), 3.0);
  EXPECT_DOUBLE_EQ(*s.mean(at(2)), 2.0);
}

TEST(Ewma, ConvergesTowardInput) {
  Ewma e(0.5);
  EXPECT_FALSE(e.has_value());
  e.record(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.record(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
  e.reset();
  EXPECT_FALSE(e.has_value());
}

TEST(Distribution, QuantilesOfKnownData) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) d.add(i);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 100.0);
  EXPECT_NEAR(d.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(d.quantile(0.99), 99.01, 0.02);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 100.0);
  EXPECT_NEAR(d.mean(), 50.5, 1e-9);
}

TEST(Distribution, TailRatios) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) d.add(i);
  EXPECT_DOUBLE_EQ(d.ratio_above(90.0), 0.10);
  EXPECT_DOUBLE_EQ(d.ratio_below(11.0), 0.10);
  EXPECT_DOUBLE_EQ(d.ccdf(100.0), 0.0);
  EXPECT_DOUBLE_EQ(d.ccdf(0.0), 1.0);
}

TEST(Distribution, EmptyIsSafe) {
  Distribution d;
  EXPECT_TRUE(d.empty());
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.ratio_above(1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
}

TEST(Distribution, InterleavedAddAndQuery) {
  Distribution d;
  d.add(5.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 5.0);
  d.add(1.0);  // must re-sort lazily
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
}

TEST(Distribution, FingerprintDigestIsTheSampleMultiset) {
  // Reads sort a Distribution in place, so app::Fnv::dist must see only
  // the multiset: every permutation hashes alike, any one bit does not.
  const auto digest = [](const std::vector<double>& xs) {
    Distribution d;
    for (const double x : xs) d.add(x);
    app::Fnv f;
    f.dist(d);
    return f.h;
  };
  std::vector<double> xs = {-1.0, 0.0, 1e-9, 3.5, 3.5, 7.25, 42.0};
  const std::uint64_t base = digest(xs);
  int permutations = 0;
  do {
    ASSERT_EQ(digest(xs), base) << "permutation " << permutations;
    ++permutations;
  } while (std::next_permutation(xs.begin(), xs.end()));
  EXPECT_EQ(permutations, 2520);  // 7! / 2! (3.5 appears twice)

  std::vector<double> changed = xs;
  changed[6] = std::nextafter(42.0, 43.0);
  EXPECT_NE(digest(changed), base);
  std::vector<double> negative_zero = xs;
  negative_zero[1] = -0.0;
  EXPECT_NE(digest(negative_zero), base);
  // Duplicate pairs cancel in the xor fold but not in the sum.
  EXPECT_NE(digest({1.0, 1.0}), digest({2.0, 2.0}));
  EXPECT_NE(digest({}), digest({0.0}));
}

TEST(Distribution, MeanDoesNotDependOnEarlierReads) {
  // Quantile reads permute the samples in place; the mean must not follow
  // them. With a sum over storage order the low bits of this mean moved.
  sim::Rng rng(7);
  Distribution d;
  for (int i = 0; i < 100000; ++i) d.add(rng.uniform(0.0, 500.0));
  Distribution whole;
  whole.add_all(d);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::uint64_t before = bits(d.mean());
  (void)d.quantile(0.5);
  (void)d.quantile(0.99);
  EXPECT_EQ(bits(d.mean()), before);
  (void)whole.quantile(0.25);
  EXPECT_EQ(bits(whole.mean()), before);
}

TEST(Heatmap2D, BinsAreLogSpacedAndRowNormalised) {
  Heatmap2D h(1.0, 256.0, 8);
  EXPECT_EQ(h.bin(1.0), 0u);
  EXPECT_EQ(h.bin(255.0), 7u);
  EXPECT_EQ(h.bin(0.5), 0u);    // clamped
  EXPECT_EQ(h.bin(1000.0), 7u);  // clamped
  h.add(2.0, 2.0);
  h.add(2.5, 2.0);
  h.add(100.0, 2.0);
  const std::size_t row = h.bin(2.0);
  double rowsum = 0;
  for (std::size_t x = 0; x < h.bins(); ++x) rowsum += h.cell_row_normalised(x, row);
  EXPECT_NEAR(rowsum, 1.0, 1e-9);
  EXPECT_NEAR(h.cell_row_normalised(h.bin(2.0), row), 2.0 / 3.0, 1e-9);
}

TEST(TimeSeries, TimeAboveThreshold) {
  TimeSeries ts;
  ts.record(at(0), 100.0);
  ts.record(at(10), 300.0);  // above from 10..20
  ts.record(at(20), 100.0);
  ts.record(at(30), 250.0);  // above from 30..40 (clamped by `to`)
  const Duration above = ts.time_above(200.0, at(0), at(40));
  EXPECT_EQ(above, 20_ms);
}

TEST(TimeSeries, TimeAboveRespectsRange) {
  TimeSeries ts;
  ts.record(at(0), 300.0);
  EXPECT_EQ(ts.time_above(200.0, at(5), at(15)), 10_ms);
}

TEST(TimeSeries, TimeBelow) {
  TimeSeries ts;
  ts.record(at(0), 5.0);
  ts.record(at(10), 15.0);
  EXPECT_EQ(ts.time_below(10.0, at(0), at(20)), 10_ms);
}

TEST(TimeSeries, LastAboveFindsReconvergence) {
  TimeSeries ts;
  ts.record(at(0), 300.0);
  ts.record(at(10), 100.0);
  ts.record(at(20), 300.0);
  ts.record(at(30), 100.0);
  EXPECT_EQ(ts.last_above(200.0, at(0), at(50)), at(30));
  EXPECT_EQ(ts.last_above(400.0, at(0), at(50)), at(0));  // never above
}

TEST(TimeSeries, MeanOverRange) {
  TimeSeries ts;
  ts.record(at(0), 10.0);
  ts.record(at(10), 20.0);
  ts.record(at(20), 30.0);
  EXPECT_DOUBLE_EQ(ts.mean(at(0), at(20)), 20.0);
  EXPECT_DOUBLE_EQ(ts.mean(at(5), at(15)), 20.0);
}

TEST(TimeSeries, TimeWeightedMeanMatchesTimeAboveSemantics) {
  TimeSeries ts;
  // Sample-and-hold: 10 for [0,10), 30 for [10,20), last sample holds to `to`.
  ts.record(at(0), 10.0);
  ts.record(at(10), 30.0);
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(at(0), at(20)), 20.0);
  // Holding tail: 10 ms at 10 + 30 ms at 30 over [0,40).
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(at(0), at(40)), 25.0);
  // Sub-interval clips both segments.
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(at(5), at(15)), 20.0);
}

TEST(TimeSeries, TimeWeightedMeanIgnoresSamplingDensity) {
  TimeSeries ts;
  // Ten rapid-fire samples of 100 in the first ms, then one sample of 0
  // holding for 9 ms: the arithmetic mean is ~91, the time-weighted 10.
  for (int i = 0; i < 10; ++i) ts.record(at(0) + Duration::micros(i * 100), 100.0);
  ts.record(at(1), 0.0);
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(at(0), at(10)), 10.0);
  EXPECT_NEAR(ts.mean(at(0), at(10)), 90.9, 0.1);
}

TEST(TimeSeries, TimeWeightedMeanEmptyWindow) {
  TimeSeries ts;
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(at(0), at(10)), 0.0);  // no samples
  ts.record(at(20), 5.0);
  // Window entirely before the first sample: nothing covered.
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(at(0), at(10)), 0.0);
}

}  // namespace
}  // namespace zhuge::stats
