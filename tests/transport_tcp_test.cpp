// Integration-style tests for the TCP-like stack: sender and receiver
// wired back to back through configurable fault-injecting pipes.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <vector>

#include "cca/cubic.hpp"
#include "cca/copa.hpp"
#include "sim/simulator.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"

namespace zhuge::transport {
namespace {

using net::Packet;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;
using namespace sim::literals;

/// Back-to-back sender/receiver pair over delay pipes with optional
/// deterministic fault injection.
struct Loop {
  Simulator sim;
  net::PacketUidSource uids;
  net::FlowId flow{1, 2, 10, 20, 6};
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpReceiver> receiver;
  std::vector<std::tuple<std::uint32_t, TimePoint, TimePoint>> frames;
  Duration one_way = 10_ms;
  std::function<bool(const Packet&)> drop_data;  ///< return true to drop
  std::function<void()> after_ack;  ///< runs after each ACK is processed

  explicit Loop(std::unique_ptr<cca::CongestionControl> cca = nullptr) {
    if (!cca) cca = std::make_unique<cca::Cubic>();
    sender = std::make_unique<TcpSender>(
        sim, flow, std::move(cca), uids,
        [this](Packet p) {
          if (drop_data && drop_data(p)) return;
          sim.schedule_after(one_way, [this, p = std::move(p)]() mutable {
            receiver->on_data(p);
          });
        });
    receiver = std::make_unique<TcpReceiver>(
        sim, uids,
        [this](Packet p) {
          sim.schedule_after(one_way, [this, p = std::move(p)]() mutable {
            sender->on_ack(p);
            if (after_ack) after_ack();
          });
        },
        [this](std::uint32_t id, TimePoint cap, TimePoint now) {
          frames.emplace_back(id, cap, now);
        });
  }
};

TEST(TcpLoop, DeliversFramesInOrderExactlyOnce) {
  Loop loop;
  for (std::uint32_t i = 0; i < 20; ++i) {
    loop.sender->write_frame(i, loop.sim.now(), 5000);
  }
  loop.sim.run_until(TimePoint::zero() + 10_s);
  ASSERT_EQ(loop.frames.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(std::get<0>(loop.frames[i]), i);
  }
  EXPECT_EQ(loop.receiver->contiguous_received(), 20u * 5000u);
  EXPECT_EQ(loop.sender->bytes_in_flight(), 0u);
}

TEST(TcpLoop, MeasuresRttNearPathRtt) {
  Loop loop;
  loop.sender->write_frame(0, loop.sim.now(), 50'000);
  loop.sim.run_until(TimePoint::zero() + 5_s);
  EXPECT_NEAR(loop.sender->smoothed_rtt().to_millis(), 20.0, 3.0);
}

TEST(TcpLoop, FastRetransmitRecoversSingleLoss) {
  Loop loop;
  int dropped = 0;
  loop.drop_data = [&](const Packet& p) {
    // Drop exactly one data packet (the third one).
    if (!p.tcp().is_ack && p.tcp().seq == 2 * 1200 && dropped == 0 &&
        p.tcp().end_seq <= 20'000) {
      ++dropped;
      return true;
    }
    return false;
  };
  loop.sender->write_frame(0, loop.sim.now(), 30'000);
  loop.sim.run_until(TimePoint::zero() + 5_s);
  EXPECT_EQ(dropped, 1);
  ASSERT_EQ(loop.frames.size(), 1u);
  EXPECT_GE(loop.sender->retransmissions(), 1u);
  EXPECT_EQ(loop.receiver->contiguous_received(), 30'000u);
}

TEST(TcpLoop, RtoRecoversFromAckBlackhole) {
  Loop loop;
  bool blackhole = true;
  loop.drop_data = [&](const Packet& p) { return blackhole && !p.tcp().is_ack; };
  loop.sender->write_frame(0, loop.sim.now(), 2400);
  loop.sim.schedule_at(TimePoint::zero() + 1_s, [&] { blackhole = false; });
  loop.sim.run_until(TimePoint::zero() + 20_s);
  ASSERT_EQ(loop.frames.size(), 1u);
  EXPECT_GE(loop.sender->retransmissions(), 1u);
}

TEST(TcpLoop, SurvivesHeavyRandomLoss) {
  Loop loop;
  sim::Rng rng(3);
  loop.drop_data = [&](const Packet& p) {
    return !p.tcp().is_ack && rng.chance(0.2);
  };
  for (std::uint32_t i = 0; i < 10; ++i) {
    loop.sender->write_frame(i, loop.sim.now(), 6000);
  }
  loop.sim.run_until(TimePoint::zero() + 60_s);
  EXPECT_EQ(loop.frames.size(), 10u);
  EXPECT_EQ(loop.receiver->contiguous_received(), 60'000u);
}

TEST(TcpLoop, RetransmittedFrameDeliversOnce) {
  Loop loop;
  int dropped = 0;
  loop.drop_data = [&](const Packet& p) {
    if (!p.tcp().is_ack && dropped < 3 && p.tcp().seq < 3600) {
      ++dropped;
      return true;
    }
    return false;
  };
  loop.sender->write_frame(0, loop.sim.now(), 3600);
  loop.sender->write_frame(1, loop.sim.now(), 3600);
  loop.sim.run_until(TimePoint::zero() + 30_s);
  ASSERT_EQ(loop.frames.size(), 2u);  // exactly once each
}

TEST(TcpLoop, BacklogDrainsEventually) {
  Loop loop(std::make_unique<cca::Copa>());
  for (std::uint32_t i = 0; i < 50; ++i) {
    loop.sender->write_frame(i, loop.sim.now(), 10'000);
  }
  EXPECT_GT(loop.sender->backlog_bytes(), 0u);
  loop.sim.run_until(TimePoint::zero() + 60_s);
  EXPECT_EQ(loop.sender->backlog_bytes(), 0u);
  EXPECT_EQ(loop.frames.size(), 50u);
}

/// Times of the retransmissions a Loop's sender makes, recorded as they
/// reach the (blackholed) path, and the (time, current_rto()) of the last
/// ACK that arrived.
struct RtoProbe {
  std::vector<TimePoint> retransmits;
  TimePoint last_ack;
  Duration rto_at_last_ack;
  std::uint64_t seen = 0;

  /// `blackhole(n)` decides each data packet's fate; n is the packet's
  /// retransmission number (1-based), or 0 for new data.
  void watch(Loop& loop, const std::function<bool(std::uint64_t)>& blackhole) {
    loop.drop_data = [this, &loop, blackhole](const Packet&) {
      std::uint64_t n = 0;
      if (loop.sender->retransmissions() > seen) {
        n = seen = loop.sender->retransmissions();
        retransmits.push_back(loop.sim.now());
      }
      return blackhole(n);
    };
    loop.after_ack = [this, &loop] {
      last_ack = loop.sim.now();
      rto_at_last_ack = loop.sender->current_rto();
    };
  }
};

TEST(TcpRto, FiresAtLastArmPlusRtoAndBacksOff) {
  Loop loop;
  RtoProbe probe;
  probe.watch(loop, [&](std::uint64_t) {
    return loop.sim.now() >= TimePoint::zero() + 60_ms;
  });
  loop.sender->write_frame(0, loop.sim.now(), 2'000'000);
  loop.sim.run_until(TimePoint::zero() + 3_s);
  // The last ACK re-armed the RTO; nothing moved it after that.
  const Duration rto = probe.rto_at_last_ack;
  ASSERT_GE(probe.retransmits.size(), 3u);
  EXPECT_EQ(probe.retransmits[0], probe.last_ack + rto);
  // Each expiry doubles the RTO from the instant it fired.
  EXPECT_EQ(probe.retransmits[1], probe.retransmits[0] + rto * 2.0);
  EXPECT_EQ(probe.retransmits[2], probe.retransmits[1] + rto * 4.0);
  EXPECT_EQ(loop.sender->current_rto(), rto * 8.0);
}

TEST(TcpRto, BackoffResetMovesTheDeadlineEarlier) {
  Loop loop;
  RtoProbe probe;
  // Blackhole from 60 ms on, except the third RTO retransmission: its
  // ACK resets the backoff while the backed-off timer is still pending.
  probe.watch(loop, [&](std::uint64_t retransmit) {
    return loop.sim.now() >= TimePoint::zero() + 60_ms && retransmit != 3;
  });
  loop.sender->write_frame(0, loop.sim.now(), 2'000'000);
  loop.sim.run_until(TimePoint::zero() + 5_s);
  ASSERT_GE(probe.retransmits.size(), 4u);
  const TimePoint third = probe.retransmits[2];
  EXPECT_EQ(probe.last_ack, third + loop.one_way * 2.0);
  // The pending event was due at third + 8·RTO; the reset RTO is shorter
  // and fires first.
  const Duration backed_off = probe.retransmits[2] - probe.retransmits[1];
  EXPECT_LT(probe.rto_at_last_ack, backed_off);
  EXPECT_EQ(probe.retransmits[3], probe.last_ack + probe.rto_at_last_ack);
  EXPECT_EQ(loop.sim.events_cancelled(), 1u);  // that one earlier deadline
}

TEST(TcpRto, AckTrainCancelsNothing) {
  Simulator sim;
  net::PacketUidSource uids;
  std::deque<Packet> sent;
  TcpSender sender(sim, net::FlowId{1, 2, 10, 20, 6}, std::make_unique<cca::Cubic>(), uids,
                   [&](Packet p) { sent.push_back(std::move(p)); });
  sender.write_frame(0, sim.now(), 10'000'000);
  // ACK each segment 20 ms after it left, straight from the test loop, so
  // the sender's own timers are all the queue holds.
  std::size_t max_queue = 0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_FALSE(sent.empty());
    const Packet seg = std::move(sent.front());
    sent.pop_front();
    sim.run_until(std::max(sim.now(), seg.sent_time + 20_ms));
    Packet ack;
    ack.flow = seg.flow.reversed();
    net::TcpHeader h;
    h.is_ack = true;
    h.ack = seg.tcp().end_seq;
    h.sack_upto = seg.tcp().end_seq;
    h.ts_echo = seg.tcp().ts_val;
    ack.header = h;
    sender.on_ack(ack);
    max_queue = std::max(max_queue, sim.queue_size());
  }
  EXPECT_LE(max_queue, 2u);  // the RTO and the pacing timer, no stale entry
  EXPECT_EQ(sim.events_cancelled(), 0u);
  EXPECT_EQ(sender.retransmissions(), 0u);
}

TEST(TcpReceiver, MergesOutOfOrderIntervals) {
  Simulator sim;
  net::PacketUidSource uids;
  std::vector<Packet> acks;
  TcpReceiver rx(sim, uids, [&](Packet p) { acks.push_back(std::move(p)); },
                 nullptr);
  auto data = [&](std::uint64_t seq, std::uint64_t end) {
    Packet p;
    p.flow = net::FlowId{1, 2, 3, 4, 6};
    net::TcpHeader h;
    h.seq = seq;
    h.end_seq = end;
    h.frame_end_seq = 10'000;
    p.header = h;
    return p;
  };
  rx.on_data(data(1200, 2400));  // hole at [0,1200)
  EXPECT_EQ(acks.back().tcp().ack, 0u);
  EXPECT_EQ(acks.back().tcp().sack_upto, 2400u);
  rx.on_data(data(2400, 3600));
  EXPECT_EQ(acks.back().tcp().ack, 0u);
  rx.on_data(data(0, 1200));  // fills the hole
  EXPECT_EQ(acks.back().tcp().ack, 3600u);
  EXPECT_EQ(rx.contiguous_received(), 3600u);
}

TEST(TcpReceiver, EchoesTimestampAndAbcMark) {
  Simulator sim;
  net::PacketUidSource uids;
  std::vector<Packet> acks;
  TcpReceiver rx(sim, uids, [&](Packet p) { acks.push_back(std::move(p)); },
                 nullptr);
  Packet p;
  p.flow = net::FlowId{1, 2, 3, 4, 6};
  net::TcpHeader h;
  h.seq = 0;
  h.end_seq = 1200;
  h.ts_val = 12345;
  h.abc_mark = net::AbcMark::kAccelerate;
  p.header = h;
  rx.on_data(p);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_TRUE(acks[0].tcp().is_ack);
  EXPECT_EQ(acks[0].tcp().ts_echo, 12345u);
  EXPECT_EQ(acks[0].tcp().abc_echo, net::AbcMark::kAccelerate);
  EXPECT_EQ(acks[0].flow, p.flow.reversed());
}

}  // namespace
}  // namespace zhuge::transport
