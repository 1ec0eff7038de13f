// Unit and property tests for the queue disciplines: drop-tail FIFO,
// CoDel, and FQ-CoDel.

#include <gtest/gtest.h>

#include <vector>

#include "queue/codel.hpp"
#include "queue/fifo.hpp"
#include "queue/fq_codel.hpp"
#include "sim/random.hpp"

namespace zhuge::queue {
namespace {

using net::FlowId;
using net::Packet;
using sim::Duration;
using sim::TimePoint;
using namespace sim::literals;

TimePoint at(std::int64_t ms) { return TimePoint::zero() + Duration::millis(ms); }

Packet make_packet(std::uint32_t bytes, FlowId flow = {}, std::uint64_t uid = 0) {
  Packet p;
  p.uid = uid;
  p.flow = flow;
  p.size_bytes = bytes;
  return p;
}

TEST(DropTailFifo, FifoOrderAndCounters) {
  DropTailFifo q(10'000);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.enqueue(make_packet(100, {}, i), at(0)));
  }
  EXPECT_EQ(q.packet_count(), 5u);
  EXPECT_EQ(q.byte_count(), 500);
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto p = q.dequeue(at(1));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->uid, i);
  }
  EXPECT_FALSE(q.dequeue(at(2)).has_value());
  EXPECT_EQ(q.byte_count(), 0);
}

TEST(DropTailFifo, TailDropOnByteLimit) {
  DropTailFifo q(250);
  EXPECT_TRUE(q.enqueue(make_packet(100), at(0)));
  EXPECT_TRUE(q.enqueue(make_packet(100), at(0)));
  EXPECT_FALSE(q.enqueue(make_packet(100), at(0)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.packet_count(), 2u);
}

TEST(DropTailFifo, UnboundedWhenNegativeLimit) {
  DropTailFifo q(-1);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(q.enqueue(make_packet(1500), at(0)));
  EXPECT_EQ(q.drops(), 0u);
}

TEST(DropTailFifo, HeadSinceTracksHeadArrival) {
  DropTailFifo q(-1);
  EXPECT_FALSE(q.head_since().has_value());
  q.enqueue(make_packet(100), at(5));
  EXPECT_EQ(*q.head_since(), at(5));
  q.enqueue(make_packet(100), at(6));
  EXPECT_EQ(*q.head_since(), at(5));  // head unchanged
  (void)q.dequeue(at(10));
  EXPECT_EQ(*q.head_since(), at(10));  // second packet became head at t=10
  (void)q.dequeue(at(11));
  EXPECT_FALSE(q.head_since().has_value());
}

TEST(DropTailFifo, PeekMatchesDequeue) {
  DropTailFifo q(-1);
  q.enqueue(make_packet(100, {}, 7), at(0));
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek()->uid, 7u);
  EXPECT_EQ(q.dequeue(at(1))->uid, 7u);
  EXPECT_EQ(q.peek(), nullptr);
}

TEST(CoDel, NoDropsBelowTarget) {
  CoDel q;
  for (int t = 0; t < 100; ++t) {
    q.enqueue(make_packet(1000), at(t));
    auto p = q.dequeue(at(t + 1));  // 1 ms sojourn < 5 ms target
    EXPECT_TRUE(p.has_value());
  }
  EXPECT_EQ(q.drops(), 0u);
}

TEST(CoDel, DropsUnderSustainedHighSojourn) {
  CoDel q;
  // Keep a standing queue: enqueue faster than we dequeue, with sojourn
  // far above target for longer than interval.
  std::uint64_t delivered = 0;
  int t = 0;
  for (; t < 50; ++t) q.enqueue(make_packet(1000), at(t));
  for (; t < 1000; t += 10) {
    q.enqueue(make_packet(1000), at(t));
    if (q.dequeue(at(t)).has_value()) ++delivered;
  }
  EXPECT_GT(q.drops(), 0u);
  EXPECT_GT(delivered, 0u);
}

TEST(CoDel, RecoversAfterQueueDrains) {
  CoDel q;
  int t = 0;
  for (; t < 50; ++t) q.enqueue(make_packet(1000), at(t));
  while (q.dequeue(at(t)).has_value()) t += 200;  // force dropping state
  const auto drops_before = q.drops();
  // Now a fresh, fast-drained load: no more drops.
  for (int i = 0; i < 50; ++i) {
    q.enqueue(make_packet(1000), at(t + i * 10));
    EXPECT_TRUE(q.dequeue(at(t + i * 10 + 1)).has_value());
  }
  EXPECT_EQ(q.drops(), drops_before);
}

TEST(CoDel, TailDropBackstop) {
  CoDel q(/*limit_bytes=*/2500);
  EXPECT_TRUE(q.enqueue(make_packet(1000), at(0)));
  EXPECT_TRUE(q.enqueue(make_packet(1000), at(0)));
  EXPECT_FALSE(q.enqueue(make_packet(1000), at(0)));
}

FlowId flow_a() { return FlowId{1, 2, 10, 20, 6}; }
FlowId flow_b() { return FlowId{3, 4, 30, 40, 6}; }

TEST(FqCoDel, SeparatesFlows) {
  FqCoDel q;
  q.enqueue(make_packet(1000, flow_a(), 1), at(0));
  q.enqueue(make_packet(1000, flow_b(), 2), at(0));
  q.enqueue(make_packet(1000, flow_a(), 3), at(0));
  EXPECT_EQ(q.flow_count(), 2u);
  EXPECT_EQ(q.byte_count_flow(flow_a()), 2000);
  EXPECT_EQ(q.byte_count_flow(flow_b()), 1000);
  EXPECT_EQ(q.byte_count(), 3000);
}

TEST(FqCoDel, DrrInterleavesFlows) {
  FqCoDel q;
  for (std::uint64_t i = 0; i < 4; ++i) q.enqueue(make_packet(1000, flow_a(), i), at(0));
  for (std::uint64_t i = 0; i < 4; ++i) {
    q.enqueue(make_packet(1000, flow_b(), 100 + i), at(0));
  }
  std::vector<std::uint64_t> order;
  while (auto p = q.dequeue(at(1))) order.push_back(p->uid);
  ASSERT_EQ(order.size(), 8u);
  // Both flows must appear within the first three dequeues (fair service,
  // quantum 1514 covers one packet per round).
  const bool a_early = order[0] < 100 || order[1] < 100 || order[2] < 100;
  const bool b_early = order[0] >= 100 || order[1] >= 100 || order[2] >= 100;
  EXPECT_TRUE(a_early);
  EXPECT_TRUE(b_early);
}

TEST(FqCoDel, ApproximatesFairShares) {
  FqCoDel q;
  // Flow A offers 3x the bytes of flow B; with both backlogged the service
  // should be ~50/50 until B runs dry.
  for (std::uint64_t i = 0; i < 30; ++i) q.enqueue(make_packet(1000, flow_a(), i), at(0));
  for (std::uint64_t i = 0; i < 10; ++i) {
    q.enqueue(make_packet(1000, flow_b(), 100 + i), at(0));
  }
  int a_in_first_20 = 0;
  for (int i = 0; i < 20; ++i) {
    auto p = q.dequeue(at(1));
    ASSERT_TRUE(p.has_value());
    if (p->uid < 100) ++a_in_first_20;
  }
  EXPECT_GE(a_in_first_20, 8);
  EXPECT_LE(a_in_first_20, 12);
}

TEST(FqCoDel, PerFlowHeadSince) {
  FqCoDel q;
  q.enqueue(make_packet(1000, flow_a()), at(5));
  q.enqueue(make_packet(1000, flow_b()), at(7));
  EXPECT_EQ(*q.head_since_flow(flow_a()), at(5));
  EXPECT_EQ(*q.head_since_flow(flow_b()), at(7));
  EXPECT_FALSE(q.head_since_flow(FlowId{9, 9, 9, 9, 6}).has_value());
}

TEST(FqCoDel, TotalLimitDrops) {
  FqCoDel q(/*total_limit_bytes=*/2500);
  EXPECT_TRUE(q.enqueue(make_packet(1000, flow_a()), at(0)));
  EXPECT_TRUE(q.enqueue(make_packet(1000, flow_b()), at(0)));
  EXPECT_FALSE(q.enqueue(make_packet(1000, flow_a()), at(0)));
  EXPECT_EQ(q.drops(), 1u);
}

// ---------------------------------------------------------------------------
// Property test: under random interleavings of enqueue/dequeue, byte and
// packet accounting stays consistent and nothing is lost or duplicated.
// ---------------------------------------------------------------------------

class QdiscPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(QdiscPropertyTest, ConservationUnderRandomOps) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::unique_ptr<Qdisc>> qdiscs;
  qdiscs.push_back(std::make_unique<DropTailFifo>(100'000));
  qdiscs.push_back(std::make_unique<CoDel>());
  qdiscs.push_back(std::make_unique<FqCoDel>());

  for (auto& q : qdiscs) {
    std::uint64_t enqueued = 0, dequeued = 0;
    std::int64_t t = 0;
    for (int op = 0; op < 2000; ++op) {
      t += static_cast<std::int64_t>(rng.uniform_int(3));
      if (rng.chance(0.6)) {
        FlowId f{rng.uniform_int(3), 1, 1, 1, 6};
        if (q->enqueue(make_packet(100 + rng.uniform_int(1400), f), at(t))) {
          ++enqueued;
        }
      } else if (q->dequeue(at(t)).has_value()) {
        ++dequeued;
      }
      ASSERT_GE(q->byte_count(), 0);
    }
    // Drain completely; accounting must balance (CoDel may have dropped
    // at dequeue time, which shows up in drops()).
    while (q->dequeue(at(t + 1'000'000)).has_value()) ++dequeued;
    EXPECT_EQ(q->byte_count(), 0);
    EXPECT_EQ(q->packet_count(), 0u);
    // Every accepted packet either came out or was head-dropped by the
    // AQM; head drops are a subset of the drops() counter (which also
    // includes tail drops that were never counted as accepted).
    EXPECT_GE(enqueued, dequeued);
    EXPECT_LE(enqueued - dequeued, q->drops())
        << "enqueued=" << enqueued << " dequeued=" << dequeued
        << " drops=" << q->drops();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QdiscPropertyTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace zhuge::queue
