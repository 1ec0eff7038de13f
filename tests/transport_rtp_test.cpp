// Integration-style tests for the RTP/RTCP stack: sender and receiver
// wired back to back, with fault injection for NACK recovery and
// feedback-driven rate control.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "rtc/video.hpp"
#include "sim/simulator.hpp"
#include "transport/rtp_receiver.hpp"
#include "transport/rtp_sender.hpp"

namespace zhuge::transport {
namespace {

using net::Packet;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;
using namespace sim::literals;

struct Loop {
  Simulator sim;
  sim::Rng rng{1};
  net::PacketUidSource uids;
  net::FlowId flow{1, 2, 10, 20, 17};
  rtc::FrameStats stats;
  std::unique_ptr<RtpSender> sender;
  std::unique_ptr<RtpReceiver> receiver;
  Duration one_way = 10_ms;
  std::function<bool(const Packet&)> drop_data;
  std::function<void(Packet&)> rtcp_tap;  ///< observe or rewrite uplink RTCP

  explicit Loop(RtpSender::Config scfg = {}, RtpReceiver::Config rcfg = {}) {
    sender = std::make_unique<RtpSender>(
        sim, rng, flow, scfg, uids, [this](Packet p) {
          if (drop_data && drop_data(p)) return;
          sim.schedule_after(one_way, [this, p = std::move(p)]() mutable {
            receiver->on_rtp(p);
          });
        });
    receiver = std::make_unique<RtpReceiver>(
        sim, rcfg, uids,
        [this](Packet p) {
          if (rtcp_tap) rtcp_tap(p);
          sim.schedule_after(one_way, [this, p = std::move(p)]() mutable {
            sender->on_rtcp(p);
          });
        },
        stats);
  }
};

TEST(RtpLoop, DecodesAllFramesOnCleanPath) {
  Loop loop;
  loop.sender->start();
  loop.sim.run_until(TimePoint::zero() + 5_s);
  // 24 fps for 5 s = 120 frames; allow the in-flight tail.
  EXPECT_GE(loop.stats.frames_decoded(), 115u);
  EXPECT_EQ(loop.sender->retransmissions(), 0u);
  // Frame delay ~ one-way + packetisation, far below 100 ms.
  EXPECT_LT(loop.stats.frame_delays_ms().quantile(0.99), 100.0);
}

TEST(RtpLoop, GccRampsUpTowardMax) {
  RtpSender::Config cfg;
  cfg.video.max_bitrate_bps = 4e6;
  cfg.gcc.max_rate_bps = 4e6;
  Loop loop(cfg);
  loop.sender->start();
  loop.sim.run_until(TimePoint::zero() + 30_s);
  // Clean path: GCC should approach the encoder cap.
  EXPECT_GT(loop.sender->target_rate_bps(), 3e6);
  EXPECT_GT(loop.sender->encoder_rate_bps(), 2.5e6);
}

TEST(RtpLoop, NackRecoversLostPackets) {
  Loop loop;
  sim::Rng drop_rng(7);
  int dropped = 0;
  loop.drop_data = [&](const Packet& p) {
    if (p.is_rtp() && !p.rtp().retransmission && drop_rng.chance(0.05)) {
      ++dropped;
      return true;
    }
    return false;
  };
  loop.sender->start();
  loop.sim.run_until(TimePoint::zero() + 10_s);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(loop.sender->retransmissions(), 0u);
  EXPECT_GT(loop.receiver->nacks_sent(), 0u);
  // Nearly every frame still decodes thanks to NACK recovery.
  EXPECT_GE(loop.stats.frames_decoded(), 230u);
}

TEST(RtpLoop, StallSkipAdvancesPastUnrecoverableFrame) {
  RtpReceiver::Config rcfg;
  rcfg.stall_timeout = 500_ms;
  Loop loop({}, rcfg);
  // Drop ALL packets of frame 10, including retransmissions.
  loop.drop_data = [](const Packet& p) {
    return p.is_rtp() && p.rtp().frame_id == 10;
  };
  loop.sender->start();
  loop.sim.run_until(TimePoint::zero() + 10_s);
  // The decoder skipped frame 10 and kept going.
  EXPECT_GT(loop.receiver->next_decode_frame(), 11u);
  EXPECT_GE(loop.stats.frames_decoded(), 200u);
}

TEST(RtpLoop, ReceiverReportsCarryLossFraction) {
  Loop loop;
  sim::Rng drop_rng(7);
  double last_loss = -1.0;
  // Observe RTCP on the way back to inspect receiver reports.
  loop.rtcp_tap = [&](const Packet& p) {
    if (p.is_rtcp()) {
      if (const auto* rr =
              std::get_if<net::RtcpReceiverReport>(&p.rtcp().payload)) {
        last_loss = rr->loss_fraction;
      }
    }
  };
  loop.drop_data = [&](const Packet& p) {
    return p.is_rtp() && !p.rtp().retransmission && drop_rng.chance(0.2);
  };
  loop.sender->start();
  loop.sim.run_until(TimePoint::zero() + 5_s);
  EXPECT_GT(last_loss, 0.02);
}

TEST(RtpLoop, TwccReportOrderDoesNotChangeRateControl) {
  // Reports list packets in arrival order and the sender sorts them into
  // send order, so reversing every report must leave rate control
  // bit-identical.
  Loop plain;
  Loop reversed;
  reversed.rtcp_tap = [](Packet& p) {
    if (auto* fb = std::get_if<net::TwccFeedback>(&p.rtcp().payload)) {
      std::reverse(fb->entries.begin(), fb->entries.end());
    }
  };
  for (Loop* loop : {&plain, &reversed}) {
    loop->sender->start();
    loop->sim.run_until(TimePoint::zero() + 10_s);
  }
  EXPECT_EQ(plain.sender->target_rate_bps(), reversed.sender->target_rate_bps());
  EXPECT_EQ(plain.sender->gcc().receive_rate_bps(),
            reversed.sender->gcc().receive_rate_bps());
  EXPECT_EQ(plain.sender->gcc().trendline_slope(),
            reversed.sender->gcc().trendline_slope());
  EXPECT_EQ(plain.stats.frames_decoded(), reversed.stats.frames_decoded());
}

TEST(RtpSender, RetransmitsOnlyWithinHistoryDepth) {
  Simulator sim;
  sim::Rng rng(1);
  net::PacketUidSource uids;
  RtpSender::Config cfg;
  cfg.history_packets = 16;
  std::vector<Packet> out;
  RtpSender sender(sim, rng, net::FlowId{1, 2, 10, 20, 17}, cfg, uids,
                   [&out](Packet p) { out.push_back(std::move(p)); });
  sender.start();
  sim.run_until(TimePoint::zero() + 1_s);
  ASSERT_GT(sender.packets_sent(), 32u);
  // The newest 16 originals are kept; the one before them is gone.
  const auto newest = static_cast<std::uint16_t>(sender.packets_sent() - 1);
  const auto oldest_kept = static_cast<std::uint16_t>(newest - 15);
  Packet nack;
  nack.header = net::RtcpHeader{net::RtcpNack{
      .ssrc = 1,
      .seqs = {static_cast<std::uint16_t>(oldest_kept - 1), oldest_kept, newest}}};
  out.clear();
  sender.on_rtcp(nack);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rtp().seq, oldest_kept);
  EXPECT_EQ(out[1].rtp().seq, newest);
  for (const Packet& p : out) {
    EXPECT_TRUE(p.rtp().retransmission);
  }
  EXPECT_EQ(sender.retransmissions(), 2u);
}

/// Media packet `index` of `count` in `frame`.
Packet media(std::uint16_t seq, std::uint32_t frame, std::uint16_t index,
             std::uint16_t count) {
  Packet p;
  p.flow = net::FlowId{1, 2, 10, 20, 17};
  net::RtpHeader h;
  h.ssrc = 1;
  h.seq = seq;
  h.twcc_seq = seq;
  h.frame_id = frame;
  h.packet_in_frame = index;
  h.packets_in_frame = count;
  p.header = h;
  return p;
}

TEST(RtpReceiver, ReassemblesInOrderCountingDuplicatesOnce) {
  Simulator sim;
  net::PacketUidSource uids;
  rtc::FrameStats stats;
  RtpReceiver rx(sim, {}, uids, [](Packet) {}, stats);

  rx.on_rtp(media(0, 0, 0, 2));
  rx.on_rtp(media(0, 0, 0, 2));  // a duplicate does not complete frame 0
  EXPECT_EQ(stats.frames_decoded(), 0u);
  rx.on_rtp(media(1, 0, 1, 2));
  EXPECT_EQ(stats.frames_decoded(), 1u);
  rx.on_rtp(media(1, 0, 1, 2));  // late duplicate of a decoded frame
  EXPECT_EQ(stats.frames_decoded(), 1u);

  // Frame 2 completes first but decodes only once frame 1 has.
  rx.on_rtp(media(4, 2, 0, 1));
  rx.on_rtp(media(3, 1, 1, 2));
  EXPECT_EQ(stats.frames_decoded(), 1u);
  rx.on_rtp(media(2, 1, 0, 2));
  EXPECT_EQ(stats.frames_decoded(), 3u);
  EXPECT_EQ(rx.next_decode_frame(), 3u);

  // A 130-packet frame (three bitmap words) arriving in reverse, every
  // packet twice, completes on its last distinct packet only.
  for (int i = 129; i >= 0; --i) {
    const auto index = static_cast<std::uint16_t>(i);
    const auto seq = static_cast<std::uint16_t>(5 + i);
    EXPECT_EQ(stats.frames_decoded(), 3u);
    rx.on_rtp(media(seq, 3, index, 130));
    rx.on_rtp(media(seq, 3, index, 130));
  }
  EXPECT_EQ(stats.frames_decoded(), 4u);
  EXPECT_EQ(rx.next_decode_frame(), 4u);
}

/// The ordered-map receiver state machine the flat one replaced, kept as
/// the reference it must match decision for decision: which frames decode
/// and when, and what every NACK asks for.
class MapReceiver {
 public:
  explicit MapReceiver(const RtpReceiver::Config& cfg) : cfg_(cfg) {}

  void on_rtp(const net::RtpHeader& h, TimePoint now) {
    const std::int64_t seq = unwrap_.unwrap(h.seq);
    if (seq > highest_) {
      for (std::int64_t s = highest_ + 1; s < seq; ++s) missing_.emplace(s, Nack{});
      highest_ = seq;
    } else {
      missing_.erase(seq);
    }
    Frame& fs = frames_[h.frame_id];
    fs.total = h.packets_in_frame;
    fs.capture = h.capture_time;
    if (!fs.seen) {
      fs.seen = true;
      fs.first_arrival = now;
    }
    fs.received.insert(h.packet_in_frame);
    try_decode(now);
  }

  /// One NACK timer tick; returns the sequences it asks for.
  std::vector<std::uint16_t> nack_tick(TimePoint now) {
    skip_stalled(now);
    std::vector<std::uint16_t> seqs;
    for (auto it = missing_.begin(); it != missing_.end();) {
      if (it->second.retries >= RtpReceiver::kMaxNackRetries) {
        it = missing_.erase(it);
        continue;
      }
      if (it->second.retries == 0 ||
          now - it->second.last_sent >= RtpReceiver::kNackRetryInterval) {
        seqs.push_back(static_cast<std::uint16_t>(it->first & 0xFFFF));
        ++it->second.retries;
        it->second.last_sent = now;
      }
      ++it;
    }
    return seqs;
  }

  std::vector<std::pair<TimePoint, TimePoint>> decoded;  ///< (capture, decode)

 private:
  struct Frame {
    std::set<std::uint16_t> received;
    std::uint16_t total = 0;
    TimePoint capture;
    TimePoint first_arrival;
    bool seen = false;
  };
  struct Nack {
    int retries = 0;
    TimePoint last_sent;
  };

  static bool complete(const Frame& f) {
    return f.total > 0 && f.received.size() >= f.total;
  }

  void try_decode(TimePoint now) {
    for (auto it = frames_.find(next_); it != frames_.end() && complete(it->second);
         it = frames_.find(next_)) {
      decoded.emplace_back(it->second.capture, now);
      frames_.erase(it);
      ++next_;
    }
    while (!frames_.empty() && frames_.begin()->first < next_) {
      frames_.erase(frames_.begin());
    }
  }

  void skip_stalled(TimePoint now) {
    while (true) {
      const auto it = frames_.find(next_);
      if (it == frames_.end()) {
        const bool newer = !frames_.empty() && frames_.rbegin()->first > next_;
        if (newer && now - frames_.begin()->second.first_arrival > cfg_.stall_timeout) {
          ++next_;
          continue;
        }
        break;
      }
      if (complete(it->second)) {
        try_decode(now);
        continue;
      }
      if (it->second.seen && now - it->second.first_arrival > cfg_.stall_timeout) {
        frames_.erase(it);
        ++next_;
        continue;
      }
      break;
    }
  }

  RtpReceiver::Config cfg_;
  net::SeqUnwrapper unwrap_;
  std::int64_t highest_ = -1;
  std::map<std::int64_t, Nack> missing_;
  std::map<std::uint32_t, Frame> frames_;
  std::uint32_t next_ = 0;
};

TEST(RtpReceiver, MatchesOrderedMapReferenceUnderLossDuplicationAndReordering) {
  // Random streams with loss, late retransmissions, duplicates and
  // reordering, across a 16-bit sequence wrap: the receiver and the
  // reference see identical arrivals and must agree on every decoded frame
  // and every NACK. Arrivals land on odd microseconds and NACK ticks on
  // multiples of 30 ms, so no arrival ties with a tick.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    sim::Rng rng(seed, 97);
    RtpReceiver::Config cfg;
    cfg.stall_timeout = 200_ms;

    struct Arrival {
      std::int64_t at_us;
      net::RtpHeader h;
    };
    std::vector<Arrival> arrivals;
    std::uint16_t seq = 0;
    for (std::uint32_t frame = 0; frame < 1100; ++frame) {
      const std::int64_t capture_us = 41'667 * static_cast<std::int64_t>(frame);
      const auto n = static_cast<std::uint16_t>(1 + rng.uniform_int(130));
      for (std::uint16_t i = 0; i < n; ++i) {
        net::RtpHeader h;
        h.ssrc = cfg.ssrc;
        h.seq = seq++;
        h.twcc_seq = h.seq;
        h.frame_id = frame;
        h.packet_in_frame = i;
        h.packets_in_frame = n;
        h.capture_time = TimePoint::zero() + Duration::micros(capture_us);
        const std::int64_t at = (capture_us + rng.uniform_int(30'000)) | 1;
        if (rng.chance(0.01)) {
          // Lost; most losses come back as a late retransmission.
          if (rng.chance(0.7)) {
            h.retransmission = true;
            arrivals.push_back({(at + 40'000 + rng.uniform_int(120'000)) | 1, h});
          }
          continue;
        }
        arrivals.push_back({at, h});
        if (rng.chance(0.02)) {
          arrivals.push_back({(at + rng.uniform_int(20'000)) | 1, h});  // duplicate
        }
      }
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const Arrival& a, const Arrival& b) { return a.at_us < b.at_us; });

    Simulator sim;
    net::PacketUidSource uids;
    rtc::FrameStats stats;
    std::vector<std::pair<TimePoint, TimePoint>> decoded;
    stats.set_observer([&](TimePoint c, TimePoint d) { decoded.emplace_back(c, d); });
    std::vector<std::vector<std::uint16_t>> nacks;
    RtpReceiver rx(sim, cfg, uids,
                   [&](Packet p) {
                     if (const auto* n = std::get_if<net::RtcpNack>(&p.rtcp().payload)) {
                       nacks.push_back(n->seqs);
                     }
                   },
                   stats);
    for (const Arrival& a : arrivals) {
      sim.schedule_at(TimePoint::zero() + Duration::micros(a.at_us), [&rx, a] {
        Packet p;
        p.flow = net::FlowId{1, 2, 10, 20, 17};
        p.header = a.h;
        rx.on_rtp(p);
      });
    }
    const TimePoint end = TimePoint::zero() + Duration::micros(arrivals.back().at_us) + 3_s;
    sim.run_until(end);

    MapReceiver ref(cfg);
    std::vector<std::vector<std::uint16_t>> ref_nacks;
    TimePoint tick = TimePoint::zero() + RtpReceiver::kNackRetryInterval;
    const auto tick_until = [&](TimePoint t) {
      for (; tick <= t; tick += RtpReceiver::kNackRetryInterval) {
        std::vector<std::uint16_t> s = ref.nack_tick(tick);
        if (!s.empty()) ref_nacks.push_back(std::move(s));
      }
    };
    for (const Arrival& a : arrivals) {
      const TimePoint at = TimePoint::zero() + Duration::micros(a.at_us);
      tick_until(at);
      ref.on_rtp(a.h, at);
    }
    tick_until(end);

    ASSERT_FALSE(ref.decoded.empty());
    EXPECT_EQ(decoded, ref.decoded);
    EXPECT_EQ(nacks, ref_nacks);
  }
}

TEST(VideoEncoder, TracksTargetBitrate) {
  sim::Rng rng(1);
  rtc::VideoConfig cfg;
  cfg.size_jitter_sigma = 0.0;
  cfg.iframe_interval = 0;
  rtc::VideoEncoder enc(cfg, rng);
  double total = 0;
  for (int i = 0; i < 240; ++i) total += static_cast<double>(enc.next_frame_bytes(2e6));
  const double rate = total * 8.0 / 10.0;  // 240 frames at 24 fps = 10 s
  EXPECT_NEAR(rate, 2e6, 0.1e6);
}

TEST(VideoEncoder, IframesLargerButAverageHolds) {
  sim::Rng rng(1);
  rtc::VideoConfig cfg;
  cfg.size_jitter_sigma = 0.0;
  cfg.iframe_interval = 48;
  cfg.iframe_ratio = 3.0;
  cfg.rate_adaptation_alpha = 1.0;
  rtc::VideoEncoder enc(cfg, rng);
  std::vector<std::uint64_t> sizes;
  for (int i = 0; i < 96; ++i) sizes.push_back(enc.next_frame_bytes(2e6));
  EXPECT_GT(sizes[0], 2 * sizes[1]);   // I-frame ~3x P-frame
  EXPECT_GT(sizes[48], 2 * sizes[49]);
  double total = 0;
  for (auto s : sizes) total += static_cast<double>(s);
  EXPECT_NEAR(total * 8.0 / 4.0, 2e6, 0.15e6);  // 96 frames = 4 s
}

TEST(VideoEncoder, RespectsMinimumBitrate) {
  sim::Rng rng(1);
  rtc::VideoConfig cfg;
  cfg.min_bitrate_bps = 300e3;
  rtc::VideoEncoder enc(cfg, rng);
  for (int i = 0; i < 50; ++i) (void)enc.next_frame_bytes(1.0);  // absurd target
  EXPECT_GE(enc.encoder_rate_bps(), 300e3 * 0.99);
}

TEST(FrameStats, PerSecondRates) {
  rtc::FrameStats fs;
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 24; ++i) {
      const TimePoint t = TimePoint::zero() + Duration::seconds(s) +
                          Duration::millis(i * 41);
      fs.on_frame_decoded(t - 30_ms, t);
    }
  }
  const auto rates = fs.frame_rates(0, 3);
  EXPECT_DOUBLE_EQ(rates.quantile(0.5), 24.0);
  EXPECT_DOUBLE_EQ(rates.ratio_below(10.0), 0.0);
  // A window past the data counts as zero fps.
  const auto empty = fs.frame_rates(5, 8);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

}  // namespace
}  // namespace zhuge::transport
