// Unit tests for the packet model, flow identities, sequence unwrapping,
// the sequence-indexed window and the wired point-to-point link.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/seq.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace zhuge::net {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::TimePoint;
using namespace sim::literals;

TEST(FlowId, ReversedSwapsEndpoints) {
  const FlowId f{1, 2, 100, 200, 17};
  const FlowId r = f.reversed();
  EXPECT_EQ(r.src_ip, 2u);
  EXPECT_EQ(r.dst_ip, 1u);
  EXPECT_EQ(r.src_port, 200);
  EXPECT_EQ(r.dst_port, 100);
  EXPECT_EQ(r.proto, 17);
  EXPECT_EQ(r.reversed(), f);
}

TEST(FlowId, EqualityAndHash) {
  const FlowId a{1, 2, 100, 200, 6};
  const FlowId b{1, 2, 100, 200, 6};
  const FlowId c{1, 2, 100, 201, 6};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  FlowIdHash h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));  // not guaranteed in general, but should hold here
}

TEST(Packet, HeaderVariantAccessors) {
  Packet p;
  EXPECT_FALSE(p.is_tcp());
  EXPECT_FALSE(p.is_rtp());
  EXPECT_FALSE(p.is_rtcp());
  p.header = TcpHeader{};
  EXPECT_TRUE(p.is_tcp());
  p.tcp().seq = 42;
  EXPECT_EQ(p.tcp().seq, 42u);
  p.header = RtpHeader{};
  EXPECT_TRUE(p.is_rtp());
  p.header = RtcpHeader{TwccFeedback{}};
  EXPECT_TRUE(p.is_rtcp());
}

TEST(SeqUnwrapper, MonotoneWithoutWrap) {
  SeqUnwrapper u;
  EXPECT_EQ(u.unwrap(0), 0);
  EXPECT_EQ(u.unwrap(1), 1);
  EXPECT_EQ(u.unwrap(100), 100);
}

TEST(SeqUnwrapper, ForwardWrap) {
  SeqUnwrapper u;
  EXPECT_EQ(u.unwrap(65530), 65530);
  EXPECT_EQ(u.unwrap(65535), 65535);
  EXPECT_EQ(u.unwrap(2), 65538);  // wrapped forward
}

TEST(SeqUnwrapper, BackwardReordering) {
  SeqUnwrapper u;
  EXPECT_EQ(u.unwrap(10), 10);
  EXPECT_EQ(u.unwrap(8), 8);  // small reorder goes backward, no wrap
}

TEST(SeqUnwrapper, BackwardAcrossWrapBoundary) {
  SeqUnwrapper u;
  EXPECT_EQ(u.unwrap(65535), 65535);
  EXPECT_EQ(u.unwrap(3), 65539);
  EXPECT_EQ(u.unwrap(65533), 65533);  // late packet from before the wrap
}

TEST(SeqUnwrapper, HalfRangeJumpTieBreaksForward) {
  // At a distance of exactly 0x8000 the forward and backward readings are
  // equidistant; the unwrapper is documented to pick *forward* (a
  // half-range jump is a loss burst, not a 32768-packet reordering).
  // This pins the `fwd <= 0x8000` comparison in seq.hpp — flipping it to
  // `<` would shift every post-gap value by 65536.
  {
    SeqUnwrapper u;
    EXPECT_EQ(u.unwrap(0), 0);
    EXPECT_EQ(u.unwrap(0x8000), 0x8000);  // forward, not -0x8000
    EXPECT_EQ(u.unwrap(0), 0x10000);      // and again across the wrap
  }
  {
    // One short of the tie still goes backward...
    SeqUnwrapper u;
    EXPECT_EQ(u.unwrap(0), 0);
    EXPECT_EQ(u.unwrap(0x8001), -0x7FFF);
  }
  {
    // ...and one past it (forward distance 0x7FFF) goes forward.
    SeqUnwrapper u;
    EXPECT_EQ(u.unwrap(2), 2);
    EXPECT_EQ(u.unwrap(0x8001), 0x8001);
  }
}

TEST(SeqUnwrapper, SurvivesManyWraps) {
  SeqUnwrapper u;
  std::int64_t expected = 0;
  std::uint16_t wire = 0;
  for (int i = 0; i < 300'000; ++i) {
    EXPECT_EQ(u.unwrap(wire), expected);
    ++wire;
    ++expected;
  }
}

TEST(SeqWindow, MatchesOrderedMapUnderRandomUse) {
  // Random appends, prefix drops and lookups in and around the range,
  // against a std::map holding the same keys. Keys start negative and run
  // far past the ring's capacity, so slots wrap many times while the range
  // grows through several doublings and now and then empties.
  sim::Rng rng(11);
  SeqWindow<std::uint32_t> window(-40);
  std::map<std::int64_t, std::uint32_t> ref;
  for (int step = 0; step < 300'000; ++step) {
    const std::uint32_t op = rng.uniform_int(10'000);
    if (op < 6'500) {
      const std::uint32_t v = rng.next_u32();
      ref[window.end_seq()] = v;
      window.push_back() = v;
    } else if (op < 8'000) {
      const std::int64_t cut =
          window.begin_seq() - 2 + static_cast<std::int64_t>(rng.uniform_int(11));
      window.drop_before(cut);
      ref.erase(ref.begin(), ref.lower_bound(cut));
    } else if (op < 8'002) {
      window.drop_before(window.end_seq() + 3);
      ref.clear();
    } else {
      const std::int64_t probe =
          window.begin_seq() - 3 +
          static_cast<std::int64_t>(
              rng.uniform_int(static_cast<std::uint32_t>(window.size()) + 6));
      const auto it = ref.find(probe);
      ASSERT_EQ(window.contains(probe), it != ref.end()) << "probe " << probe;
      if (it != ref.end()) {
        ASSERT_EQ(window[probe], it->second);
      }
    }
    ASSERT_EQ(window.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(window.begin_seq(), ref.begin()->first);
      ASSERT_EQ(window.end_seq(), ref.rbegin()->first + 1);
    }
  }
}

Packet make_packet(std::uint32_t bytes, std::uint64_t uid = 0) {
  Packet p;
  p.uid = uid;
  p.size_bytes = bytes;
  return p;
}

TEST(PointToPointLink, DeliversWithSerializationPlusPropagation) {
  Simulator sim;
  std::vector<TimePoint> deliveries;
  PointToPointLink::Config cfg;
  cfg.rate_bps = 8e6;  // 1 byte per microsecond
  cfg.prop_delay = 10_ms;
  PointToPointLink link(sim, cfg, [&](Packet) { deliveries.push_back(sim.now()); });
  link.send(make_packet(1000));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], TimePoint::zero() + 1_ms + 10_ms);
}

TEST(PointToPointLink, SerializesBackToBack) {
  Simulator sim;
  std::vector<TimePoint> deliveries;
  PointToPointLink::Config cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = Duration::zero();
  PointToPointLink link(sim, cfg, [&](Packet) { deliveries.push_back(sim.now()); });
  link.send(make_packet(1000));
  link.send(make_packet(1000));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], TimePoint::zero() + 1_ms);
  EXPECT_EQ(deliveries[1], TimePoint::zero() + 2_ms);
}

TEST(PointToPointLink, PreservesOrder) {
  Simulator sim;
  std::vector<std::uint64_t> uids;
  PointToPointLink::Config cfg;
  PointToPointLink link(sim, cfg, [&](Packet p) { uids.push_back(p.uid); });
  for (std::uint64_t i = 0; i < 20; ++i) link.send(make_packet(500, i));
  sim.run();
  ASSERT_EQ(uids.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(uids[i], i);
}

TEST(PointToPointLink, BoundedBufferDrops) {
  Simulator sim;
  int delivered = 0;
  PointToPointLink::Config cfg;
  cfg.rate_bps = 8e3;  // slow: keeps packets queued
  cfg.buffer_bytes = 2000;
  PointToPointLink link(sim, cfg, [&](Packet) { ++delivered; });
  // First is in transmission (not buffered); next two fill the buffer.
  EXPECT_TRUE(link.send(make_packet(1000)));
  EXPECT_TRUE(link.send(make_packet(1000)));
  EXPECT_TRUE(link.send(make_packet(1000)));
  EXPECT_FALSE(link.send(make_packet(1000)));  // overflow
  EXPECT_EQ(link.drops(), 1u);
  sim.run();
  EXPECT_EQ(delivered, 3);
}

TEST(PointToPointLink, JitterBoundedByConfig) {
  Simulator sim;
  sim::Rng rng(1);
  std::vector<TimePoint> deliveries;
  PointToPointLink::Config cfg;
  cfg.rate_bps = 8e9;
  cfg.prop_delay = 10_ms;
  cfg.jitter_max = 5_ms;
  PointToPointLink link(sim, cfg, [&](Packet) { deliveries.push_back(sim.now()); });
  link.set_rng(&rng);
  for (int i = 0; i < 50; ++i) link.send(make_packet(100));
  sim.run();
  for (const auto t : deliveries) {
    EXPECT_GE(t, TimePoint::zero() + 10_ms);
    EXPECT_LE(t, TimePoint::zero() + 16_ms);
  }
}

}  // namespace
}  // namespace zhuge::net
