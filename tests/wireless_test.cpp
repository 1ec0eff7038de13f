// Unit tests for the wireless substrate: channel, shared-medium arbiter,
// WiFi link (AMPDU aggregation, retries), and the cellular link.

#include <gtest/gtest.h>

#include <vector>

#include "queue/fifo.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "wireless/cellular_link.hpp"
#include "wireless/channel.hpp"
#include "wireless/medium.hpp"
#include "wireless/wifi_link.hpp"

namespace zhuge::wireless {
namespace {

using net::Packet;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;
using namespace sim::literals;

Packet make_packet(std::uint32_t bytes, std::uint64_t uid = 0) {
  Packet p;
  p.uid = uid;
  p.size_bytes = bytes;
  return p;
}

TEST(Channel, TraceDrivenFollowsTrace) {
  const auto tr = trace::step_trace(20e6, 2e6, 1_s, 2_s);
  Channel ch(&tr);
  EXPECT_TRUE(ch.trace_driven());
  EXPECT_DOUBLE_EQ(ch.rate_bps(TimePoint::zero()), 20e6);
  EXPECT_DOUBLE_EQ(ch.rate_bps(TimePoint::zero() + 1500_ms), 2e6);
}

TEST(Channel, McsModeAndClamping) {
  Channel ch(7);
  EXPECT_FALSE(ch.trace_driven());
  EXPECT_DOUBLE_EQ(ch.rate_bps(TimePoint::zero()), kMcsRateBps[7]);
  ch.set_mcs(0);
  EXPECT_DOUBLE_EQ(ch.rate_bps(TimePoint::zero()), kMcsRateBps[0]);
  ch.set_mcs(-5);
  EXPECT_EQ(ch.mcs(), 0);
  ch.set_mcs(100);
  EXPECT_EQ(ch.mcs(), 7);
}

TEST(Medium, GrantsSequentially) {
  Simulator sim;
  sim::Rng rng(1);
  Medium medium(sim, rng);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    medium.transmit([&order, i] { order.push_back(i); return Duration::millis(1); },
                    [] {});
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Medium, InterferersSlowLocalTraffic) {
  auto run_with = [](int interferers) {
    Simulator sim;
    sim::Rng rng(1);
    Medium medium(sim, rng, interferers);
    TimePoint done;
    int remaining = 50;
    std::function<void()> next = [&] {
      if (remaining-- == 0) {
        done = sim.now();
        return;
      }
      medium.transmit([] { return Duration::millis(1); }, [&] { next(); });
    };
    next();
    sim.run();
    return done;
  };
  const TimePoint clean = run_with(0);
  const TimePoint noisy = run_with(10);
  // With 10 saturating interferers the local share is ~1/11: roughly an
  // order of magnitude slower.
  EXPECT_GT((noisy - TimePoint::zero()).to_seconds(),
            5.0 * (clean - TimePoint::zero()).to_seconds());
}

struct WifiHarness {
  Simulator sim;
  sim::Rng rng{1};
  trace::Trace tr;
  Channel channel;
  Medium medium;
  queue::DropTailFifo qdisc{-1};
  std::vector<Packet> delivered;
  std::unique_ptr<WifiLink> link;

  explicit WifiHarness(double rate_bps, WifiLink::Config cfg = {})
      : tr(trace::constant_trace(rate_bps, 1000_s)),
        channel(&tr),
        medium(sim, rng) {
    link = std::make_unique<WifiLink>(sim, rng, channel, medium, qdisc, cfg,
                                      [this](Packet p) { delivered.push_back(std::move(p)); });
  }
};

TEST(WifiLink, DeliversAllPacketsOnCleanChannel) {
  WifiLink::Config cfg;
  cfg.mpdu_loss_prob = 0.0;
  WifiHarness h(20e6, cfg);
  for (std::uint64_t i = 0; i < 100; ++i) h.link->offer(make_packet(1200, i));
  h.sim.run_until(TimePoint::zero() + 5_s);
  ASSERT_EQ(h.delivered.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(h.delivered[i].uid, i);
}

TEST(WifiLink, ThroughputTracksChannelRate) {
  WifiLink::Config cfg;
  cfg.mpdu_loss_prob = 0.0;
  WifiHarness h(10e6, cfg);
  // Offer 2 MB; at 10 Mbps this needs ~1.6 s plus overheads.
  const int n = 2'000'000 / 1500;
  for (int i = 0; i < n; ++i) h.link->offer(make_packet(1500));
  h.sim.run_until(TimePoint::zero() + 10_s);
  ASSERT_EQ(h.delivered.size(), static_cast<std::size_t>(n));
  const double took = h.delivered.back().delivered_time.to_seconds();
  EXPECT_GT(took, 1.4);
  EXPECT_LT(took, 2.4);  // overheads bounded
}

TEST(WifiLink, AggregatesSimultaneousDepartures) {
  WifiLink::Config cfg;
  cfg.mpdu_loss_prob = 0.0;
  cfg.max_agg_packets = 8;
  WifiHarness h(50e6, cfg);
  std::vector<TimePoint> dequeues;
  h.link->set_dequeue_observer(
      [&](const Packet&, TimePoint t) { dequeues.push_back(t); });
  for (int i = 0; i < 16; ++i) h.link->offer(make_packet(1200));
  h.sim.run_until(TimePoint::zero() + 1_s);
  ASSERT_EQ(dequeues.size(), 16u);
  // First grant happens before packet 9 is enqueued? All 16 offered at
  // t=0, so departures come in aggregation bursts of up to 8 with equal
  // timestamps inside each burst.
  int simultaneous = 0;
  for (std::size_t i = 1; i < dequeues.size(); ++i) {
    if (dequeues[i] == dequeues[i - 1]) ++simultaneous;
  }
  EXPECT_GE(simultaneous, 10);
}

TEST(WifiLink, RespectsAggregationByteCap) {
  WifiLink::Config cfg;
  cfg.mpdu_loss_prob = 0.0;
  cfg.max_agg_bytes = 3000;
  WifiHarness h(50e6, cfg);
  std::vector<TimePoint> dequeues;
  h.link->set_dequeue_observer(
      [&](const Packet&, TimePoint t) { dequeues.push_back(t); });
  for (int i = 0; i < 6; ++i) h.link->offer(make_packet(1200));
  h.sim.run_until(TimePoint::zero() + 1_s);
  ASSERT_EQ(dequeues.size(), 6u);
  // Max 2 packets (2400B) fit under the 3000B cap per AMPDU.
  int burst = 1;
  for (std::size_t i = 1; i < dequeues.size(); ++i) {
    if (dequeues[i] == dequeues[i - 1]) {
      ++burst;
      EXPECT_LE(burst, 2);
    } else {
      burst = 1;
    }
  }
}

TEST(WifiLink, RetriesRecoverLosses) {
  WifiLink::Config cfg;
  cfg.mpdu_loss_prob = 0.3;  // harsh channel, retries must still deliver
  WifiHarness h(20e6, cfg);
  for (std::uint64_t i = 0; i < 200; ++i) h.link->offer(make_packet(1200, i));
  h.sim.run_until(TimePoint::zero() + 30_s);
  EXPECT_EQ(h.delivered.size() + h.link->retry_drops(), 200u);
  // With 7 retries at 30% loss, effectively everything arrives.
  EXPECT_GE(h.delivered.size(), 199u);
}

TEST(WifiLink, DeliveryObserverFiresOnAirSuccess) {
  WifiLink::Config cfg;
  cfg.mpdu_loss_prob = 0.0;
  WifiHarness h(20e6, cfg);
  int observed = 0;
  h.link->set_delivery_observer([&](const Packet&, TimePoint) { ++observed; });
  for (int i = 0; i < 10; ++i) h.link->offer(make_packet(1000));
  h.sim.run_until(TimePoint::zero() + 1_s);
  EXPECT_EQ(observed, 10);
}

TEST(WifiLink, LowRateLimitsAggregationByAirtime) {
  WifiLink::Config cfg;
  cfg.mpdu_loss_prob = 0.0;
  cfg.max_frame_airtime = 4_ms;
  WifiHarness h(1e6, cfg);  // 4 ms at 1 Mbps = 500 bytes
  std::vector<TimePoint> dequeues;
  h.link->set_dequeue_observer(
      [&](const Packet&, TimePoint t) { dequeues.push_back(t); });
  for (int i = 0; i < 4; ++i) h.link->offer(make_packet(1200));
  h.sim.run_until(TimePoint::zero() + 1_s);
  ASSERT_EQ(dequeues.size(), 4u);
  // Airtime cap of 500 B per frame: one packet per AMPDU, so no
  // simultaneous departures.
  for (std::size_t i = 1; i < dequeues.size(); ++i) {
    EXPECT_NE(dequeues[i], dequeues[i - 1]);
  }
}

TEST(CellularLink, DeliversAtTraceRate) {
  Simulator sim;
  sim::Rng rng(1);
  const auto tr = trace::constant_trace(8e6, 100_s);
  Channel ch(&tr);
  queue::DropTailFifo q(-1);
  std::vector<Packet> delivered;
  CellularLink link(sim, rng, ch, q, [&](Packet p) { delivered.push_back(std::move(p)); });
  // 1 MB at 8 Mbps = 1 s.
  const int n = 1'000'000 / 1000;
  for (int i = 0; i < n; ++i) link.offer(make_packet(1000));
  sim.run_until(TimePoint::zero() + 5_s);
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(n));
  const double took = delivered.back().delivered_time.to_seconds();
  EXPECT_NEAR(took, 1.0, 0.1);
}

TEST(CellularLink, BudgetDoesNotBankWhileIdle) {
  Simulator sim;
  sim::Rng rng(1);
  const auto tr = trace::constant_trace(80e6, 100_s);
  Channel ch(&tr);
  queue::DropTailFifo q(-1);
  std::vector<TimePoint> deliveries;
  CellularLink link(sim, rng, ch, q, [&](Packet) { deliveries.push_back(sim.now()); });
  link.offer(make_packet(1000));
  sim.run_until(TimePoint::zero() + 500_ms);
  // A long idle period must not accumulate credit that would let a later
  // burst bypass the TTI pacing entirely.
  for (int i = 0; i < 100; ++i) link.offer(make_packet(10'000));
  sim.run_until(TimePoint::zero() + 10_s);
  ASSERT_GE(deliveries.size(), 2u);
  // 1 MB at 80 Mbps = 100 ms minimum.
  const double burst_span =
      (deliveries.back() - deliveries[1]).to_seconds();
  EXPECT_GT(burst_span, 0.05);
}

TEST(WifiLink, RetryAccountingIsDeterministic) {
  // Same seed, same lossy channel: the retry/drop realization must be
  // bit-identical run to run — chaos verdicts and regression baselines
  // depend on it. Every offered packet is either delivered or counted as
  // a retry drop; none vanish.
  auto run_once = [](std::uint64_t seed) {
    WifiLink::Config cfg;
    cfg.mpdu_loss_prob = 0.4;
    cfg.max_retries = 2;  // low enough that some packets actually die
    WifiHarness h(20e6, cfg);
    h.rng = sim::Rng(seed);
    for (std::uint64_t i = 0; i < 300; ++i) h.link->offer(make_packet(1200, i));
    h.sim.run_until(TimePoint::zero() + 60_s);
    std::vector<std::uint64_t> uids;
    uids.reserve(h.delivered.size());
    for (const Packet& p : h.delivered) uids.push_back(p.uid);
    return std::pair{uids, h.link->retry_drops()};
  };
  const auto [uids_a, drops_a] = run_once(3);
  EXPECT_EQ(uids_a.size() + drops_a, 300u);  // conservation
  EXPECT_GT(drops_a, 0u);                    // the fault path actually ran
  EXPECT_EQ(run_once(3), (std::pair{uids_a, drops_a}));
  EXPECT_NE(run_once(4).second, drops_a);
}

TEST(CellularLink, ResidualLossAccountingIsDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    sim::Rng rng(seed);
    const auto tr = trace::constant_trace(8e6, 100_s);
    Channel ch(&tr);
    queue::DropTailFifo q(-1);
    std::vector<std::uint64_t> uids;
    CellularLink link(sim, rng, ch, q, [&](Packet p) { uids.push_back(p.uid); },
                      /*loss_prob=*/0.3);
    for (std::uint64_t i = 0; i < 400; ++i) link.offer(make_packet(1000, i));
    sim.run_until(TimePoint::zero() + 10_s);
    return uids;
  };
  const auto uids = run_once(5);
  EXPECT_GT(uids.size(), 200u);
  EXPECT_LT(uids.size(), 350u);  // ~30% lost to residual air loss
  EXPECT_EQ(run_once(5), uids);  // same seed, same surviving set
  EXPECT_NE(run_once(6), uids);
}

TEST(CellularLink, ResidualLossDropsPackets) {
  Simulator sim;
  sim::Rng rng(1);
  const auto tr = trace::constant_trace(8e6, 100_s);
  Channel ch(&tr);
  queue::DropTailFifo q(-1);
  int delivered = 0;
  CellularLink link(sim, rng, ch, q, [&](Packet) { ++delivered; }, /*loss_prob=*/0.5);
  for (int i = 0; i < 400; ++i) link.offer(make_packet(1000));
  sim.run_until(TimePoint::zero() + 10_s);
  EXPECT_GT(delivered, 120);
  EXPECT_LT(delivered, 280);
}

}  // namespace
}  // namespace zhuge::wireless
