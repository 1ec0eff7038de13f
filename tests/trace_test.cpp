// Unit tests for the trace module: containers, CSV round-trips, synthetic
// generators and the Fig. 3(b) ABW-reduction analysis.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace zhuge::trace {
namespace {

using sim::Duration;
using sim::TimePoint;
using namespace sim::literals;

TEST(Trace, ConstantTrace) {
  const Trace t = constant_trace(10e6, 10_s);
  EXPECT_DOUBLE_EQ(t.rate_at(TimePoint::zero()), 10e6);
  EXPECT_DOUBLE_EQ(t.rate_at(TimePoint::zero() + 5_s), 10e6);
  EXPECT_DOUBLE_EQ(t.mean_rate_bps(), 10e6);
}

TEST(Trace, StepTraceSwitchesAtBoundary) {
  const Trace t = step_trace(30e6, 3e6, 10_s, 20_s);
  EXPECT_DOUBLE_EQ(t.rate_at(TimePoint::zero() + 9_s), 30e6);
  EXPECT_DOUBLE_EQ(t.rate_at(TimePoint::zero() + 10_s), 3e6);
  EXPECT_DOUBLE_EQ(t.rate_at(TimePoint::zero() + 19_s), 3e6);
}

TEST(Trace, SampleAndHoldBetweenSamples) {
  std::vector<Trace::Sample> s = {
      {TimePoint::zero(), 1e6},
      {TimePoint::zero() + 100_ms, 2e6},
      {TimePoint::zero() + 200_ms, 3e6},
  };
  const Trace t("t", std::move(s));
  EXPECT_DOUBLE_EQ(t.rate_at(TimePoint::zero() + 50_ms), 1e6);
  EXPECT_DOUBLE_EQ(t.rate_at(TimePoint::zero() + 150_ms), 2e6);
  EXPECT_DOUBLE_EQ(t.rate_at(TimePoint::zero() + 250_ms), 3e6);
}

TEST(Trace, LoopsPastEnd) {
  std::vector<Trace::Sample> s = {
      {TimePoint::zero(), 1e6},
      {TimePoint::zero() + 100_ms, 2e6},
  };
  const Trace t("t", std::move(s));
  // span = 200 ms; t=210ms wraps to 10ms -> first sample.
  EXPECT_DOUBLE_EQ(t.rate_at(TimePoint::zero() + 210_ms), 1e6);
  EXPECT_DOUBLE_EQ(t.rate_at(TimePoint::zero() + 310_ms), 2e6);
}

TEST(Trace, EmptyIsSafe) {
  const Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.rate_at(TimePoint::zero()), 0.0);
}

TEST(TraceCsv, RoundTrip) {
  const Trace out = make_trace(TraceKind::kOfficeWifi, 3, 2_s);
  const std::string path = "/tmp/zhuge_trace_test.csv";
  save_csv(out, path);
  const Trace in = load_csv(path, "reload");
  ASSERT_EQ(in.samples().size(), out.samples().size());
  for (std::size_t i = 0; i < in.samples().size(); ++i) {
    EXPECT_NEAR(in.samples()[i].rate_bps, out.samples()[i].rate_bps,
                out.samples()[i].rate_bps * 1e-6);
    EXPECT_NEAR(in.samples()[i].t.to_millis(), out.samples()[i].t.to_millis(), 1e-3);
  }
  std::filesystem::remove(path);
}

TEST(TraceCsv, RejectsMissingFile) {
  EXPECT_THROW(load_csv("/nonexistent/file.csv"), std::runtime_error);
}

TEST(TraceCsv, RejectsMalformedLine) {
  const std::string path = "/tmp/zhuge_trace_bad.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("0,1.0\nnot a line\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(load_csv(path), std::runtime_error);
  std::filesystem::remove(path);
}

/// Write `content` to a temp CSV and return the load_csv error message
/// (empty string when it unexpectedly loads).
std::string csv_error(const std::string& content) {
  const std::string path = "/tmp/zhuge_trace_diag.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(content.c_str(), f);
    std::fclose(f);
  }
  std::string msg;
  try {
    (void)load_csv(path);
  } catch (const std::runtime_error& e) {
    msg = e.what();
  }
  std::filesystem::remove(path);
  return msg;
}

TEST(TraceCsv, MalformedLineErrorNamesFileLineAndToken) {
  const std::string msg = csv_error("0,1.0\ngarbage here\n2,3.0\n");
  EXPECT_NE(msg.find("zhuge_trace_diag.csv:2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("garbage here"), std::string::npos) << msg;
}

TEST(TraceCsv, TrailingTokenRejectedWithDetail) {
  const std::string msg = csv_error("0,1.0 extra\n");
  EXPECT_NE(msg.find(":1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("trailing token \"extra\""), std::string::npos) << msg;
}

TEST(TraceCsv, NonFiniteValueRejected) {
  const std::string msg = csv_error("0,1.0\n1,nan\n");
  EXPECT_NE(msg.find(":2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("non-finite"), std::string::npos) << msg;
}

TEST(TraceCsv, NegativeRateRejected) {
  const std::string msg = csv_error("0,-5\n");
  EXPECT_NE(msg.find("negative rate"), std::string::npos) << msg;
}

TEST(TraceCsv, BackwardsTimeRejected) {
  const std::string msg = csv_error("0,1.0\n100,2.0\n50,3.0\n");
  EXPECT_NE(msg.find(":3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("backwards"), std::string::npos) << msg;
}

TEST(TraceCsv, LongOffendingLineIsTruncatedInMessage) {
  const std::string msg = csv_error("0,1.0\n" + std::string(500, 'x') + "\n");
  EXPECT_NE(msg.find("..."), std::string::npos) << msg;
  EXPECT_LT(msg.size(), 250u);  // excerpt capped, not the whole line
}

TEST(TraceCsv, StreamOverloadNamesSourceAndRejectsOutOfRangeTime) {
  // 1e300 ms is finite but overflows int64 nanoseconds.
  std::istringstream in("0,1.0\n1e300,2.0\n");
  std::string msg;
  try {
    (void)load_csv(in, "mem.csv");
  } catch (const std::runtime_error& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("mem.csv:2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("time out of range"), std::string::npos) << msg;
}

TEST(TraceCsv, CommentsAndBlankLinesStillSkipped) {
  const std::string path = "/tmp/zhuge_trace_ok.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("# header\n\n0,1.0\n# mid comment\n100,2.0\n", f);
    std::fclose(f);
  }
  const Trace t = load_csv(path);
  EXPECT_EQ(t.samples().size(), 2u);
  std::filesystem::remove(path);
}

TEST(Synthetic, DeterministicInSeed) {
  const Trace a = make_trace(TraceKind::kRestaurantWifi, 5, 10_s);
  const Trace b = make_trace(TraceKind::kRestaurantWifi, 5, 10_s);
  const Trace c = make_trace(TraceKind::kRestaurantWifi, 6, 10_s);
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples()[i].rate_bps, b.samples()[i].rate_bps);
  }
  bool any_diff = false;
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    if (a.samples()[i].rate_bps != c.samples()[i].rate_bps) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

class SyntheticKindTest : public ::testing::TestWithParam<TraceKind> {};

TEST_P(SyntheticKindTest, MeanNearConfiguredAndBounded) {
  const TraceKind kind = GetParam();
  const SyntheticParams p = params_for(kind);
  const Trace t = make_trace(kind, 11, Duration::seconds(300));
  // Mean within 30% of the configured mean (fades drag it down a little).
  EXPECT_GT(t.mean_rate_bps(), 0.55 * p.mean_bps);
  EXPECT_LT(t.mean_rate_bps(), 1.3 * p.mean_bps);
  for (const auto& s : t.samples()) {
    EXPECT_GE(s.rate_bps, p.mean_bps * p.floor_ratio * 0.999);
    EXPECT_LE(s.rate_bps, p.mean_bps * p.ceil_ratio * 1.001);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SyntheticKindTest,
    ::testing::Values(TraceKind::kRestaurantWifi, TraceKind::kOfficeWifi,
                      TraceKind::kIndoorMixed45G, TraceKind::kCity4G,
                      TraceKind::kCity5G, TraceKind::kEthernet,
                      TraceKind::kLegacyCellular));

TEST(Synthetic, NamesAreStable) {
  EXPECT_STREQ(short_name(TraceKind::kRestaurantWifi), "W1");
  EXPECT_STREQ(short_name(TraceKind::kCity5G), "C3");
  EXPECT_STREQ(short_name(TraceKind::kEthernet), "ETH");
  EXPECT_STREQ(long_name(TraceKind::kOfficeWifi), "Office WiFi (5GHz)");
}

TEST(AbwReduction, WirelessHasHeavierDropTailThanWired) {
  const Duration len = Duration::seconds(600);
  const auto wifi = abw_reduction_stats(make_trace(TraceKind::kRestaurantWifi, 4, len));
  const auto eth = abw_reduction_stats(make_trace(TraceKind::kEthernet, 4, len));
  // Paper Fig. 3(b): P[reduction > 10x] is 0.6-7.3% for wireless and
  // < 0.1% for wired.
  EXPECT_GT(wifi.fraction_above(10.0), 0.002);
  EXPECT_LT(eth.fraction_above(10.0), 0.001);
  EXPECT_LT(eth.fraction_above(2.0), 0.01);
}

TEST(AbwReduction, FractionAboveIsMonotone) {
  const auto s = abw_reduction_stats(
      make_trace(TraceKind::kIndoorMixed45G, 9, Duration::seconds(300)));
  double prev = 1.0;
  for (double k : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
    const double f = s.fraction_above(k);
    EXPECT_LE(f, prev);
    prev = f;
  }
}

TEST(AbwReduction, StepTraceHasExactlyOneBigDrop) {
  const Trace t = step_trace(30e6, 3e6, 10_s, 20_s);
  const auto s = abw_reduction_stats(t);
  int big = 0;
  for (double r : s.reduction_ratios) {
    if (r > 5.0) ++big;
  }
  EXPECT_EQ(big, 1);
}

}  // namespace
}  // namespace zhuge::trace
