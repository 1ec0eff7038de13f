// Unit and property tests for the Zhuge Feedback Updater (§5.2, §5.3):
// delta history + tokens + conservation for out-of-band ACK delaying, the
// retreatable release queue, and in-band TWCC construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/ack_scheduler.hpp"
#include "core/feedback_inband.hpp"
#include "core/feedback_oob.hpp"
#include "core/zhuge.hpp"
#include "queue/fifo.hpp"
#include "sim/simulator.hpp"

namespace zhuge::core {
namespace {

using net::Packet;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;
using namespace sim::literals;

TimePoint at(std::int64_t ms) { return TimePoint::zero() + Duration::millis(ms); }

OobConfig raw_oob() {
  OobConfig cfg;
  cfg.delta_smoothing_alpha = 1.0;  // literal Algorithm 1 for unit tests
  return cfg;
}

TEST(OobUpdater, NoDeltasMeansNoDelay) {
  sim::Rng rng(1);
  OobFeedbackUpdater u(raw_oob(), rng);
  for (int i = 0; i < 10; ++i) u.on_data_delay(10_ms, at(i));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(u.ack_delay(at(20 + i)), Duration::zero());
  }
}

TEST(OobUpdater, PositiveDeltaDelaysAcks) {
  sim::Rng rng(1);
  OobFeedbackUpdater u(raw_oob(), rng);
  u.on_data_delay(10_ms, at(0));
  u.on_data_delay(30_ms, at(1));  // +20 ms delta
  const Duration d = u.ack_delay(at(2));
  EXPECT_EQ(d, 20_ms);
}

TEST(OobUpdater, ConservationAcrossManyAcks) {
  sim::Rng rng(1);
  OobFeedbackUpdater u(raw_oob(), rng);
  u.on_data_delay(10_ms, at(0));
  u.on_data_delay(40_ms, at(1));  // +30 ms observed in total
  Duration total = Duration::zero();
  for (int i = 0; i < 50; ++i) {
    // Sampler would re-draw the 30 ms delta repeatedly; conservation must
    // cap the cumulative applied shift at the observed 30 ms. The order
    // floor may carry earlier holds forward, so measure the extras via
    // the applied-shift accounting.
    (void)u.ack_delay(at(2 + i));
  }
  total = u.applied_shift();
  EXPECT_LE(total, 30_ms + 1_ns);
}

TEST(OobUpdater, TokensCancelSampledDelay) {
  sim::Rng rng(1);
  OobFeedbackUpdater u(raw_oob(), rng);
  u.on_data_delay(10_ms, at(0));
  u.on_data_delay(40_ms, at(1));  // +30
  u.on_data_delay(10_ms, at(2));  // -30 -> token
  EXPECT_EQ(u.token_total(), 30_ms);
  const Duration d = u.ack_delay(at(3));
  EXPECT_EQ(d, Duration::zero());  // token ate the sampled 30 ms
  EXPECT_LT(u.token_total(), 30_ms + 1_ns);
}

TEST(OobUpdater, MaxExtraDelayClamps) {
  sim::Rng rng(1);
  OobConfig cfg = raw_oob();
  cfg.max_extra_delay = 15_ms;
  cfg.max_pending_shift = 1_s;
  OobFeedbackUpdater u(cfg, rng);
  u.on_data_delay(0_ms, at(0));
  u.on_data_delay(500_ms, at(1));
  EXPECT_LE(u.ack_delay(at(2)), 15_ms);
}

TEST(OobUpdater, PendingShiftCapBoundsReleaseClock) {
  sim::Rng rng(1);
  OobConfig cfg = raw_oob();
  cfg.max_extra_delay = 200_ms;
  cfg.max_pending_shift = 100_ms;
  OobFeedbackUpdater u(cfg, rng);
  Duration prev_total = Duration::zero();
  for (int i = 0; i < 20; ++i) {
    u.on_data_delay(Duration::millis(50 * i), at(i));
  }
  // Many ACKs at the same arrival instant: the release clock may not run
  // more than 100 ms ahead of now.
  for (int i = 0; i < 20; ++i) {
    const Duration d = u.ack_delay(at(30));
    EXPECT_LE(d, 100_ms + 1_ns);
    EXPECT_GE(d, prev_total);  // order preserved: non-decreasing holds
    prev_total = d;
  }
}

TEST(OobUpdater, OrderPreservedUnderRandomInput) {
  // Property: release times (arrival + delay) never go backwards, for any
  // interleaving of data deltas and ACK arrivals.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed);
    sim::Rng traffic(seed + 100);
    OobFeedbackUpdater u(raw_oob(), rng);
    TimePoint last_release = TimePoint::zero();
    std::int64_t t_ms = 0;
    Duration delay = 10_ms;
    for (int i = 0; i < 500; ++i) {
      t_ms += static_cast<std::int64_t>(traffic.uniform_int(5));
      if (traffic.chance(0.5)) {
        delay += Duration::from_millis(traffic.normal(0.0, 5.0));
        if (delay < Duration::zero()) delay = Duration::zero();
        u.on_data_delay(delay, at(t_ms));
      } else {
        const Duration d = u.ack_delay(at(t_ms));
        const TimePoint release = at(t_ms) + d;
        EXPECT_GE(release, last_release) << "seed " << seed << " step " << i;
        last_release = release;
      }
    }
  }
}

TEST(OobUpdater, AppliedNeverExceedsObserved) {
  // Property: cumulative applied shift <= cumulative observed positive
  // delta, under random traffic.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed);
    sim::Rng traffic(seed + 200);
    OobFeedbackUpdater u(raw_oob(), rng);
    std::int64_t t_ms = 0;
    Duration delay = 20_ms;
    for (int i = 0; i < 1000; ++i) {
      t_ms += 1;
      if (traffic.chance(0.5)) {
        delay += Duration::from_millis(traffic.normal(0.0, 8.0));
        if (delay < Duration::zero()) delay = Duration::zero();
        u.on_data_delay(delay, at(t_ms));
      } else {
        (void)u.ack_delay(at(t_ms));
      }
      EXPECT_LE(u.applied_shift(), u.observed_shift() + 1_ns);
    }
  }
}

TEST(OobUpdater, AccumulationAblationDistorts) {
  // With distributional sampling off, three +1 ms deltas pile into the
  // next single ACK (the §5.2 counterexample).
  sim::Rng rng(1);
  OobConfig cfg = raw_oob();
  cfg.distributional_sampling = false;
  OobFeedbackUpdater u(cfg, rng);
  u.on_data_delay(10_ms, at(0));
  u.on_data_delay(11_ms, at(1));
  u.on_data_delay(12_ms, at(2));
  u.on_data_delay(13_ms, at(3));
  EXPECT_EQ(u.ack_delay(at(4)), 3_ms);       // all three deltas at once
  EXPECT_EQ(u.ack_delay(at(10)), 0_ms);      // nothing left
}

TEST(OobUpdater, SmoothingReducesDeltaMagnitude) {
  sim::Rng rng(1);
  OobConfig cfg = raw_oob();
  cfg.delta_smoothing_alpha = 0.25;
  OobFeedbackUpdater u(cfg, rng);
  u.on_data_delay(10_ms, at(0));
  u.on_data_delay(30_ms, at(1));  // smoothed: +5 ms only
  EXPECT_EQ(u.ack_delay(at(2)), 5_ms);
}

TEST(AckScheduler, ReleasesInOrderAtScheduledTimes) {
  Simulator sim;
  std::vector<std::pair<std::uint64_t, TimePoint>> out;
  AckScheduler sched(sim, [&](Packet p) { out.emplace_back(p.uid, sim.now()); });
  Packet a, b;
  a.uid = 1;
  b.uid = 2;
  sched.hold(std::move(a), at(10));
  sched.hold(std::move(b), at(20));
  sim.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], std::make_pair<std::uint64_t>(1, at(10)));
  EXPECT_EQ(out[1], std::make_pair<std::uint64_t>(2, at(20)));
}

TEST(AckScheduler, HoldsBehindAnUnchangedFrontCancelNothing) {
  Simulator sim;
  std::vector<std::pair<std::uint64_t, TimePoint>> out;
  AckScheduler sched(sim, [&](Packet p) { out.emplace_back(p.uid, sim.now()); });
  // One hold every ms, each released 30 ms later: up to 30 queue behind
  // the front at a time, and only a release moves the timer.
  std::size_t max_queue = 0;
  for (std::int64_t i = 0; i < 100; ++i) {
    sim.run_until(at(i));
    Packet p;
    p.uid = static_cast<std::uint64_t>(i);
    sched.hold(std::move(p), at(i + 30));
    max_queue = std::max(max_queue, sim.queue_size());
  }
  sim.run();
  EXPECT_EQ(max_queue, 1u);  // the one release timer, no stale entry
  EXPECT_EQ(sim.events_cancelled(), 0u);
  ASSERT_EQ(out.size(), 100u);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              std::make_pair(static_cast<std::uint64_t>(i), at(i + 30)));
  }
}

TEST(AckScheduler, RetreatPullsReleasesEarlier) {
  Simulator sim;
  std::vector<TimePoint> out;
  AckScheduler sched(sim, [&](Packet) { out.push_back(sim.now()); });
  Packet a, b;
  sched.hold(std::move(a), at(100));
  sched.hold(std::move(b), at(200));
  sim.schedule_at(at(10), [&] {
    const Duration retreated = sched.retreat(50_ms);
    EXPECT_EQ(retreated, 50_ms);
  });
  sim.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], at(50));
  EXPECT_EQ(out[1], at(150));
}

TEST(AckScheduler, RetreatClampsAtNow) {
  Simulator sim;
  std::vector<TimePoint> out;
  AckScheduler sched(sim, [&](Packet) { out.push_back(sim.now()); });
  Packet a;
  sched.hold(std::move(a), at(100));
  sim.schedule_at(at(60), [&] { (void)sched.retreat(500_ms); });
  sim.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], at(60));  // released immediately, not in the past
}

TEST(InbandUpdater, ConstructsTwccFromFortunes) {
  Simulator sim;
  std::vector<Packet> sent;
  InbandConfig cfg;
  cfg.feedback_interval = 25_ms;
  net::FlowId flow{1, 100, 5000, 6000, 17};
  InbandFeedbackUpdater u(sim, cfg, flow, /*ssrc=*/7,
                          [&](Packet p) { sent.push_back(std::move(p)); });
  net::RtpHeader h;
  h.twcc_seq = 5;
  sim.schedule_at(at(0), [&] { u.on_rtp_packet(h, 12_ms); });
  sim.run_until(at(100));
  ASSERT_EQ(sent.size(), 1u);
  ASSERT_TRUE(sent[0].is_rtcp());
  const auto& fb = std::get<net::TwccFeedback>(sent[0].rtcp().payload);
  EXPECT_TRUE(fb.constructed_by_ap);
  EXPECT_EQ(fb.ssrc, 7u);
  ASSERT_EQ(fb.entries.size(), 1u);
  EXPECT_EQ(fb.entries[0].twcc_seq, 5);
  EXPECT_EQ(fb.entries[0].recv_time, at(0) + 12_ms);
  EXPECT_EQ(sent[0].flow, flow.reversed());
}

TEST(InbandUpdater, ReportedRecvTimesAreMonotone) {
  Simulator sim;
  std::vector<Packet> sent;
  net::FlowId flow{1, 100, 5000, 6000, 17};
  InbandFeedbackUpdater u(sim, {}, flow, 1,
                          [&](Packet p) { sent.push_back(std::move(p)); });
  // Noisy predictions: 30 ms then 5 ms — reported times must not regress.
  net::RtpHeader h1, h2;
  h1.twcc_seq = 1;
  h2.twcc_seq = 2;
  sim.schedule_at(at(0), [&] {
    u.on_rtp_packet(h1, 30_ms);
    u.on_rtp_packet(h2, 5_ms);
  });
  sim.run_until(at(100));
  ASSERT_EQ(sent.size(), 1u);
  const auto& fb = std::get<net::TwccFeedback>(sent[0].rtcp().payload);
  ASSERT_EQ(fb.entries.size(), 2u);
  EXPECT_GE(fb.entries[1].recv_time, fb.entries[0].recv_time);
}

TEST(InbandUpdater, DropsOnlyMatchingClientTwcc) {
  Simulator sim;
  net::FlowId flow{1, 100, 5000, 6000, 17};
  InbandFeedbackUpdater u(sim, {}, flow, /*ssrc=*/7, [](Packet) {});

  Packet own_twcc;
  own_twcc.header = net::RtcpHeader{net::TwccFeedback{.ssrc = 7, .entries = {}}};
  EXPECT_TRUE(u.should_drop_uplink(own_twcc));

  Packet other_twcc;
  other_twcc.header = net::RtcpHeader{net::TwccFeedback{.ssrc = 9, .entries = {}}};
  EXPECT_FALSE(u.should_drop_uplink(other_twcc));

  Packet nack;
  nack.header = net::RtcpHeader{net::RtcpNack{.ssrc = 7, .seqs = {}}};
  EXPECT_FALSE(u.should_drop_uplink(nack));

  Packet data;
  data.header = net::RtpHeader{};
  EXPECT_FALSE(u.should_drop_uplink(data));
}

TEST(ZhugeFlow, AnnotatesPredictionsAndRoutesUplink) {
  Simulator sim;
  sim::Rng rng(1);
  net::FlowId flow{1, 100, 5000, 6000, 6};
  std::vector<Packet> to_server;
  ZhugeFlow zf(sim, rng, flow, {}, [&](Packet p) { to_server.push_back(std::move(p)); });
  queue::DropTailFifo q(-1);

  Packet data;
  data.flow = flow;
  data.size_bytes = 1240;
  data.header = net::TcpHeader{};
  zf.on_downlink(data, q);
  EXPECT_GE(data.predicted_delay_ms, 0.0);

  Packet ack;
  ack.flow = flow.reversed();
  net::TcpHeader ah;
  ah.is_ack = true;
  ack.header = ah;
  const auto decision = zf.on_uplink(ack);
  EXPECT_EQ(decision.action, UplinkAction::kDelay);
}

TEST(ZhugeFlow, HandleUplinkForwardsRtcpNack) {
  Simulator sim;
  sim::Rng rng(1);
  net::FlowId flow{1, 100, 5000, 6000, 17};
  std::vector<Packet> to_server;
  ZhugeFlow zf(sim, rng, flow, {}, [&](Packet p) { to_server.push_back(std::move(p)); });
  queue::DropTailFifo q(-1);

  Packet data;
  data.flow = flow;
  data.size_bytes = 1240;
  net::RtpHeader rh;
  rh.ssrc = 3;
  data.header = rh;
  zf.on_downlink(data, q);  // creates the in-band updater with ssrc 3

  Packet nack;
  nack.flow = flow.reversed();
  nack.header = net::RtcpHeader{net::RtcpNack{.ssrc = 3, .seqs = {}}};
  EXPECT_EQ(zf.handle_uplink(std::move(nack)), UplinkAction::kForward);
  EXPECT_EQ(to_server.size(), 1u);

  Packet twcc;
  twcc.flow = flow.reversed();
  twcc.header = net::RtcpHeader{net::TwccFeedback{.ssrc = 3, .entries = {}}};
  EXPECT_EQ(zf.handle_uplink(std::move(twcc)), UplinkAction::kDrop);
  EXPECT_EQ(to_server.size(), 1u);
}

}  // namespace
}  // namespace zhuge::core
