// Unit tests for the comparison baselines: FastAck (IMC '17) and the ABC
// router (NSDI '20) — plus integration runs of each baseline as the AP
// mechanism on a small multi-station scenario (the eval matrix's
// mechanism axis), pinning one fingerprint per mechanism.

#include <gtest/gtest.h>

#include <cstdint>

#include "app/scenario.hpp"
#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "baseline/abc_router.hpp"
#include "baseline/fastack.hpp"

namespace zhuge::baseline {
namespace {

using net::Packet;
using sim::Duration;
using sim::TimePoint;
using namespace sim::literals;

TimePoint at(std::int64_t ms) { return TimePoint::zero() + Duration::millis(ms); }

Packet tcp_data(std::uint64_t seq, std::uint64_t end, std::uint64_t ts = 0) {
  Packet p;
  p.flow = net::FlowId{1, 2, 10, 20, 6};
  net::TcpHeader h;
  h.seq = seq;
  h.end_seq = end;
  h.ts_val = ts;
  p.header = h;
  return p;
}

TEST(FastAck, ForgesCumulativeAcks) {
  FastAck fa;
  auto a1 = fa.on_wireless_delivered(tcp_data(0, 1200, 7), at(1), 100);
  ASSERT_TRUE(a1.has_value());
  EXPECT_TRUE(a1->tcp().is_ack);
  EXPECT_EQ(a1->tcp().ack, 1200u);
  EXPECT_EQ(a1->tcp().ts_echo, 7u);
  EXPECT_EQ(a1->flow, tcp_data(0, 0).flow.reversed());

  auto a2 = fa.on_wireless_delivered(tcp_data(1200, 2400), at(2), 101);
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a2->tcp().ack, 2400u);
}

TEST(FastAck, HandlesOutOfOrderDelivery) {
  FastAck fa;
  auto a1 = fa.on_wireless_delivered(tcp_data(1200, 2400), at(1), 100);
  ASSERT_TRUE(a1.has_value());
  EXPECT_EQ(a1->tcp().ack, 0u);         // hole at the front
  EXPECT_EQ(a1->tcp().sack_upto, 2400u);
  auto a2 = fa.on_wireless_delivered(tcp_data(0, 1200), at(2), 101);
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a2->tcp().ack, 2400u);  // hole filled, prefix jumps
}

TEST(FastAck, PartialOverlapAcksThroughEarlierInterval) {
  // [0,11) fills the hole up to 11. The prefix then runs on through
  // [5,20), which starts below [10,12) but reaches further: the ACK must
  // say 20, as TcpReceiver's does, not stop at 12.
  FastAck fa;
  (void)fa.on_wireless_delivered(tcp_data(5, 20), at(1), 100);
  (void)fa.on_wireless_delivered(tcp_data(10, 12), at(2), 101);
  auto ack = fa.on_wireless_delivered(tcp_data(0, 11), at(3), 102);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->tcp().ack, 20u);
  EXPECT_EQ(ack->tcp().sack_upto, 20u);
}

TEST(FastAck, IgnoresNonTcpPackets) {
  FastAck fa;
  Packet rtp;
  rtp.header = net::RtpHeader{};
  EXPECT_FALSE(fa.on_wireless_delivered(rtp, at(1), 100).has_value());
}

TEST(FastAck, DropsClientPureAcks) {
  Packet ack;
  net::TcpHeader h;
  h.is_ack = true;
  ack.header = h;
  EXPECT_TRUE(FastAck::should_drop_uplink(ack));
  Packet data = tcp_data(0, 1200);
  EXPECT_FALSE(FastAck::should_drop_uplink(data));
}

TEST(AbcRouter, MarksAccelerateWhenUnderutilised) {
  AbcRouter router;
  // Dequeues at 10 Mbps, arrivals at 2 Mbps, empty queue: everything
  // should accelerate.
  std::int64_t t = 0;
  int accel = 0, total = 0;
  for (int i = 0; i < 400; ++i) {
    t += 1;
    router.on_dequeue(1250, at(t));  // 10 Mbps
    if (i % 5 == 0) {                // arrivals at 2 Mbps
      ++total;
      if (router.mark(1250, Duration::zero(), at(t)) == net::AbcMark::kAccelerate) {
        ++accel;
      }
    }
  }
  EXPECT_GT(accel, total * 8 / 10);
}

TEST(AbcRouter, BrakesUnderQueueDelay) {
  AbcRouter router;
  std::int64_t t = 0;
  // Arrivals match dequeues (10 Mbps) but a large standing queue delay
  // drives the target rate to zero: everything brakes.
  int brake = 0, total = 0;
  for (int i = 0; i < 400; ++i) {
    t += 1;
    router.on_dequeue(1250, at(t));
    ++total;
    if (router.mark(1250, 200_ms, at(t)) == net::AbcMark::kBrake) ++brake;
  }
  EXPECT_GT(brake, total * 9 / 10);
}

TEST(AbcRouter, MarkFractionTracksTargetOverCurrent) {
  AbcRouter router(/*eta=*/1.0);
  std::int64_t t = 0;
  // Dequeue rate 5 Mbps, arrival rate 10 Mbps, no queue delay: target/cr
  // = 0.5, so about half the packets should be accelerate.
  int accel = 0, total = 0;
  for (int i = 0; i < 2000; ++i) {
    t += 1;
    if (i % 2 == 0) router.on_dequeue(1250, at(t));  // 5 Mbps
    ++total;
    if (router.mark(1250, Duration::zero(), at(t)) == net::AbcMark::kAccelerate) {
      ++accel;
    }
  }
  const double frac = static_cast<double>(accel) / total;
  EXPECT_GT(frac, 0.35);
  EXPECT_LT(frac, 0.65);
}

// ---------------------------------------------------------------------------
// Baselines as the AP mechanism, end to end
// ---------------------------------------------------------------------------

/// Two W1 trace-driven stations, one optimised TCP flow each. ABC runs its
/// cooperating sender (the mechanism replaces the host stack); the others
/// compete with CUBIC.
app::ScenarioSpec small_mechanism_spec(app::ApMode mode) {
  app::ScenarioSpec spec;
  spec.name = "baseline_small";
  spec.duration_s = 6.0;
  spec.warmup_s = 1.0;
  spec.seed = 7;
  spec.ap_mode = mode;
  app::StationGroupSpec g;
  g.count = 2;
  g.trace_class = trace::TraceKind::kRestaurantWifi;
  spec.stations = {g};
  for (int i = 0; i < 2; ++i) {
    app::SpecFlow f;
    f.kind = mode == app::ApMode::kAbc ? app::SpecFlowKind::kTcpAbc
                                       : app::SpecFlowKind::kTcpCubic;
    f.station = i;
    f.zhuge = true;
    f.start_s = 0.2 * i;
    spec.flows.push_back(f);
  }
  return spec;
}

app::MultiStationResult run_mechanism(app::ApMode mode) {
  return app::run_multi_station(small_mechanism_spec(mode));
}

void expect_clean_run(const app::MultiStationResult& r) {
  // Every flow moved traffic, and none of the feedback-path safety
  // invariants (feedback.ack_order, feedback.twcc_monotone,
  // feedback.hold_bound, ...) fired — a baseline that reorders or
  // regresses feedback is a broken baseline, not a slow one.
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_EQ(r.stranded_acks, 0u);
  ASSERT_EQ(r.flows.size(), 2u);
  for (const auto& f : r.flows) {
    EXPECT_GT(f.packets_delivered, 0u) << "flow " << f.index;
    EXPECT_GT(f.goodput_bps, 0.0) << "flow " << f.index;
  }
}

/// Pinned per-mechanism fingerprints: the mechanism axis of the eval
/// matrix must stay bit-stable. Refresh (after an intentional behaviour
/// change) by running this suite and copying the "got" values.
struct MechanismPin {
  app::ApMode mode;
  const char* name;
  std::uint64_t fingerprint;
};

constexpr MechanismPin kMechanismPins[] = {
    {app::ApMode::kNone, "vanilla", 0x22f6b803c32af640ull},
    {app::ApMode::kZhuge, "zhuge", 0xdb6dfb12b48652e7ull},
    {app::ApMode::kFastAck, "fastack", 0x133a211dc3f40566ull},
    {app::ApMode::kAbc, "abc", 0x7f0644ef4be6857cull},
};

TEST(BaselineIntegration, EachMechanismRunsCleanWithPinnedFingerprint) {
  for (const auto& pin : kMechanismPins) {
    SCOPED_TRACE(pin.name);
    const auto r = run_mechanism(pin.mode);
    expect_clean_run(r);
    EXPECT_EQ(app::multi_result_fingerprint(r), pin.fingerprint)
        << pin.name << " drifted; refresh the pin if intentional";
  }
}

TEST(BaselineIntegration, MechanismsProduceDistinctOutcomes) {
  // The same workload under different AP mechanisms must not collapse to
  // the same trajectory — if two fingerprints collide, one mechanism is
  // not actually engaged on the TCP path.
  std::uint64_t fp[4];
  for (int i = 0; i < 4; ++i) {
    fp[i] = app::multi_result_fingerprint(run_mechanism(kMechanismPins[i].mode));
  }
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      EXPECT_NE(fp[i], fp[j])
          << kMechanismPins[i].name << " vs " << kMechanismPins[j].name;
    }
  }
}

TEST(BaselineIntegration, RunsAreDeterministic) {
  // Same spec, same seed: bitwise identical results (what the eval golden
  // anchors stand on).
  const auto a = run_mechanism(app::ApMode::kFastAck);
  const auto b = run_mechanism(app::ApMode::kFastAck);
  EXPECT_EQ(app::multi_result_fingerprint(a), app::multi_result_fingerprint(b));
}

}  // namespace
}  // namespace zhuge::baseline
