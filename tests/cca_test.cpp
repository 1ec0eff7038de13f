// Unit tests for the congestion-control algorithms: CUBIC, Copa, BBR,
// the ABC sender, and GCC.

#include <gtest/gtest.h>

#include "cca/abc_sender.hpp"
#include "cca/bbr.hpp"
#include "cca/copa.hpp"
#include "cca/cubic.hpp"
#include "cca/gcc.hpp"

namespace zhuge::cca {
namespace {

using sim::Duration;
using sim::TimePoint;
using namespace sim::literals;

TimePoint at(std::int64_t ms) { return TimePoint::zero() + Duration::millis(ms); }

AckEvent ack(std::int64_t t_ms, double rtt_ms, std::uint64_t bytes = kMss,
             double rate_bps = 0.0) {
  AckEvent ev;
  ev.now = at(t_ms);
  ev.rtt = Duration::from_millis(rtt_ms);
  ev.acked_bytes = bytes;
  ev.delivery_rate_bps = rate_bps;
  return ev;
}

TEST(Cubic, SlowStartDoublesPerRtt) {
  Cubic c;
  const auto initial = c.cwnd_bytes();
  // Ack a full window: slow start grows cwnd by acked bytes.
  c.on_ack(ack(0, 50, initial));
  EXPECT_EQ(c.cwnd_bytes(), 2 * initial);
  EXPECT_TRUE(c.in_slow_start());
}

TEST(Cubic, LossAppliesBeta) {
  Cubic c;
  for (int i = 0; i < 50; ++i) c.on_ack(ack(i * 10, 50));
  const auto before = c.cwnd_bytes();
  c.on_loss(at(600), kMss);
  EXPECT_NEAR(static_cast<double>(c.cwnd_bytes()),
              0.7 * static_cast<double>(before),
              static_cast<double>(kMss));
  EXPECT_FALSE(c.in_slow_start());
}

TEST(Cubic, GrowsAgainAfterLoss) {
  Cubic c;
  for (int i = 0; i < 50; ++i) c.on_ack(ack(i * 10, 50));
  c.on_loss(at(600), kMss);
  const auto after_loss = c.cwnd_bytes();
  for (int i = 0; i < 300; ++i) c.on_ack(ack(700 + i * 10, 50));
  EXPECT_GT(c.cwnd_bytes(), after_loss);
}

TEST(Cubic, RtoCollapsesWindow) {
  Cubic c;
  for (int i = 0; i < 50; ++i) c.on_ack(ack(i * 10, 50));
  c.on_rto(at(600));
  EXPECT_EQ(c.cwnd_bytes(), 2 * kMss);
}

TEST(Copa, IncreasesWhenQueueEmpty) {
  Copa c;
  const auto initial = c.cwnd_bytes();
  // Constant RTT = min RTT: dq = 0, target infinite, cwnd grows.
  for (int i = 0; i < 100; ++i) c.on_ack(ack(i * 10, 50));
  EXPECT_GT(c.cwnd_bytes(), initial);
}

TEST(Copa, BacksOffUnderStandingQueue) {
  Copa c;
  for (int i = 0; i < 100; ++i) c.on_ack(ack(i * 10, 50));
  const auto high = c.cwnd_bytes();
  // Now the RTT jumps to 250 ms and stays: dq = 200 ms, target rate
  // = 1/(0.5*0.2) = 10 pkts/s. Velocity doubles once per RTT after three
  // consistent RTTs, so the collapse accelerates over ~15-20 RTTs.
  for (int i = 0; i < 1000; ++i) c.on_ack(ack(1000 + i * 10, 250));
  EXPECT_LT(c.cwnd_bytes(), high / 2);
}

TEST(Copa, IgnoresIsolatedLoss) {
  Copa c;
  for (int i = 0; i < 50; ++i) c.on_ack(ack(i * 10, 50));
  const auto before = c.cwnd_bytes();
  c.on_loss(at(500), kMss);
  EXPECT_EQ(c.cwnd_bytes(), before);
}

TEST(Copa, RtoHalvesWindow) {
  Copa c;
  for (int i = 0; i < 100; ++i) c.on_ack(ack(i * 10, 50));
  const auto before = c.cwnd_bytes();
  c.on_rto(at(1100));
  EXPECT_LE(c.cwnd_bytes(), before / 2 + kMss);
}

TEST(Copa, PacingRatePositiveOnceRttKnown) {
  Copa c;
  EXPECT_DOUBLE_EQ(c.pacing_rate_bps(), 0.0);
  c.on_ack(ack(0, 50));
  EXPECT_GT(c.pacing_rate_bps(), 0.0);
}

TEST(Bbr, StartupGrowsAggressively) {
  Bbr b;
  const auto initial = b.cwnd_bytes();
  for (int i = 0; i < 20; ++i) {
    b.on_ack(ack(i * 10, 50, kMss, 5e6 * (1 + i)));  // growing bandwidth
  }
  EXPECT_GT(b.cwnd_bytes(), 2 * initial);
  EXPECT_GT(b.pacing_rate_bps(), 5e6);
}

TEST(Bbr, ExitsStartupWhenBandwidthPlateaus) {
  Bbr b;
  // Bandwidth stuck at 10 Mbps for many RTTs: pacing gain must fall from
  // the startup gain (2.885) to the probe cycle (<= 1.25).
  for (int i = 0; i < 400; ++i) {
    AckEvent ev = ack(i * 50, 50, kMss, 10e6);
    ev.bytes_in_flight = 10'000;
    b.on_ack(ev);
  }
  EXPECT_LT(b.pacing_rate_bps(), 10e6 * 1.5);
  EXPECT_GT(b.pacing_rate_bps(), 10e6 * 0.5);
}

TEST(Bbr, CwndTracksBdp) {
  Bbr b;
  for (int i = 0; i < 400; ++i) {
    AckEvent ev = ack(i * 50, 50, kMss, 10e6);
    ev.bytes_in_flight = 10'000;
    b.on_ack(ev);
  }
  // BDP = 10 Mbps * 50 ms = 62.5 kB; cwnd_gain 2 -> ~125 kB.
  EXPECT_NEAR(static_cast<double>(b.cwnd_bytes()), 125'000, 40'000);
}

TEST(AbcSender, FollowsRouterMarks) {
  AbcSender a;
  const auto initial = a.cwnd_bytes();
  AckEvent up = ack(0, 50);
  up.abc_echo = net::AbcMark::kAccelerate;
  for (int i = 0; i < 10; ++i) a.on_ack(up);
  EXPECT_EQ(a.cwnd_bytes(), initial + 10 * kMss);
  AckEvent down = ack(100, 50);
  down.abc_echo = net::AbcMark::kBrake;
  for (int i = 0; i < 20; ++i) a.on_ack(down);
  EXPECT_LE(a.cwnd_bytes(), initial);
}

std::vector<TwccObservation> feedback_window(std::int64_t start_ms, int n,
                                             double owd_ms, double owd_slope_ms,
                                             std::uint16_t& seq) {
  std::vector<TwccObservation> v;
  for (int i = 0; i < n; ++i) {
    TwccObservation o;
    o.twcc_seq = seq++;
    o.send_time = at(start_ms + i * 10);
    o.recv_time = o.send_time +
                  Duration::from_millis(owd_ms + owd_slope_ms * i);
    o.size_bytes = 12'000;  // 10 per 100 ms window = ~9.6 Mbps delivered
    v.push_back(o);
  }
  return v;
}

TEST(Gcc, RampsUpOnCleanPath) {
  Gcc g;
  const double start = g.target_rate_bps();
  std::uint16_t seq = 0;
  for (int w = 0; w < 100; ++w) {
    g.on_feedback(feedback_window(w * 100, 10, 20.0, 0.0, seq), at(w * 100 + 100));
  }
  EXPECT_GT(g.target_rate_bps(), 2.0 * start);
}

TEST(Gcc, DetectsOveruseOnGrowingDelay) {
  Gcc g;
  std::uint16_t seq = 0;
  for (int w = 0; w < 30; ++w) {
    g.on_feedback(feedback_window(w * 100, 10, 20.0, 0.0, seq), at(w * 100 + 100));
  }
  const double before = g.target_rate_bps();
  // Delay now grows 5 ms per packet, 50 ms per window: clear overuse.
  for (int w = 30; w < 40; ++w) {
    g.on_feedback(
        feedback_window(w * 100, 10, 20.0 + (w - 30) * 50.0, 5.0, seq),
        at(w * 100 + 100));
  }
  EXPECT_LT(g.target_rate_bps(), before);
}

TEST(Gcc, LossCutsRate) {
  Gcc g;
  std::uint16_t seq = 0;
  for (int w = 0; w < 50; ++w) {
    g.on_feedback(feedback_window(w * 100, 10, 20.0, 0.0, seq), at(w * 100 + 100));
  }
  const double before = g.target_rate_bps();
  g.on_loss_report(0.3, at(5000));
  EXPECT_LT(g.target_rate_bps(), before);
}

TEST(Gcc, LossRecoveryIsRateLimited) {
  Gcc g;
  std::uint16_t seq = 0;
  for (int w = 0; w < 50; ++w) {
    g.on_feedback(feedback_window(w * 100, 10, 20.0, 0.0, seq), at(w * 100 + 100));
  }
  g.on_loss_report(0.5, at(5000));
  const double cut = g.target_rate_bps();
  // Spamming clean loss reports within the update interval must not
  // re-inflate the rate.
  for (int i = 0; i < 20; ++i) g.on_loss_report(0.0, at(5000 + i * 10));
  EXPECT_LE(g.target_rate_bps(), cut * 1.06);
}

TEST(Gcc, TargetRespectsBounds) {
  Gcc::Config cfg;
  cfg.min_rate_bps = 200e3;
  cfg.max_rate_bps = 1e6;
  Gcc g(cfg);
  std::uint16_t seq = 0;
  for (int w = 0; w < 200; ++w) {
    g.on_feedback(feedback_window(w * 100, 10, 20.0, 0.0, seq), at(w * 100 + 100));
  }
  EXPECT_LE(g.target_rate_bps(), 1e6);
  EXPECT_GE(g.target_rate_bps(), 200e3);
}

TEST(Names, AreStable) {
  EXPECT_EQ(Cubic().name(), "cubic");
  EXPECT_EQ(Copa().name(), "copa");
  EXPECT_EQ(Bbr().name(), "bbr");
  EXPECT_EQ(AbcSender().name(), "abc");
}

}  // namespace
}  // namespace zhuge::cca
