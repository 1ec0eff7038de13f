#pragma once
// RTP receiver: jitter buffer with in-order decode, TWCC feedback
// construction (the packets Zhuge drops and replaces, §5.3), NACK-based
// loss recovery, and periodic receiver reports.

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "net/seq.hpp"
#include "rtc/video.hpp"
#include "sim/simulator.hpp"

namespace zhuge::transport {

using net::Packet;
using net::PacketHandler;
using sim::Duration;
using sim::TimePoint;

/// RTP receiver half.
class RtpReceiver {
 public:
  struct Config {
    std::uint32_t ssrc = 1;
    /// A head-of-line frame older than this is abandoned (decoder resync;
    /// real decoders recover at the next I-frame). Skipped frames are not
    /// counted as decoded, so stalls show up in the frame-rate metric.
    Duration stall_timeout = Duration::seconds(2);
  };

  static constexpr Duration kTwccInterval = Duration::millis(25);
  static constexpr Duration kNackRetryInterval = Duration::millis(30);
  static constexpr int kMaxNackRetries = 10;
  static constexpr Duration kRrInterval = Duration::millis(500);
  static constexpr std::uint32_t kRtcpBytes = 80;

  RtpReceiver(sim::Simulator& simulator, Config cfg, net::PacketUidSource& uids,
              PacketHandler rtcp_out, rtc::FrameStats& stats)
      : sim_(simulator),
        cfg_(cfg),
        uids_(uids),
        rtcp_out_(std::move(rtcp_out)),
        stats_(stats) {
    arm_timers();
  }

  /// Cancels the three periodic feedback timers so a receiver can be
  /// destroyed mid-run (flow churn) without dangling callbacks.
  ~RtpReceiver();

  RtpReceiver(const RtpReceiver&) = delete;
  RtpReceiver& operator=(const RtpReceiver&) = delete;

  /// Process one downlink RTP packet.
  void on_rtp(const Packet& p);

  [[nodiscard]] std::uint64_t packets_received() const { return packets_received_; }
  [[nodiscard]] std::uint64_t nacks_sent() const { return nacks_sent_; }
  [[nodiscard]] std::uint32_t next_decode_frame() const {
    return static_cast<std::uint32_t>(frames_.begin_seq());
  }

 private:
  void arm_timers();
  void arm_timers_twcc();
  void arm_timers_nack();
  void arm_timers_rr();
  void send_twcc();
  void send_nacks();
  void send_rr();
  void try_decode();
  void maybe_skip_stalled();
  void drop_settled_prefix();
  Packet make_rtcp(net::RtcpHeader h);

  sim::Simulator& sim_;
  Config cfg_;
  net::PacketUidSource& uids_;
  PacketHandler rtcp_out_;
  rtc::FrameStats& stats_;

  net::FlowId reverse_flow_;  ///< learned from the first RTP packet
  bool flow_known_ = false;

  // TWCC bookkeeping.
  std::vector<net::TwccFeedback::Entry> pending_twcc_;

  // Frame reassembly. A frame's slot is live ("seen") once any of its
  // packets arrived; arrived packets are a bitmap over packet_in_frame, so
  // a duplicate counts once.
  struct FrameState {
    std::vector<std::uint64_t> received;  ///< bit i set: packet i arrived
    std::uint32_t received_count = 0;     ///< distinct packets arrived
    std::uint16_t total = 0;
    TimePoint capture;
    TimePoint first_arrival;
    TimePoint complete_time;  ///< when the last missing packet arrived
    bool seen = false;
    bool complete = false;

    [[nodiscard]] bool decodable() const {
      return total > 0 && received_count >= total;
    }
  };
  /// Keyed by frame id from the next frame to decode on: frames below it
  /// were decoded or abandoned, and late packets of theirs are ignored.
  /// Slots are appended only up to an arriving packet's frame, so the
  /// newest slot is always a seen frame.
  net::SeqWindow<FrameState> frames_;

  // Loss detection / NACK, on unwrapped RTP sequence numbers. The window
  // runs from the oldest sequence still missing (always its first slot)
  // to the highest one seen; slots between that are no longer missing
  // were received or given up on.
  net::SeqUnwrapper rtp_unwrap_;
  std::int64_t highest_rtp_ = -1;
  struct NackState {
    bool missing = false;
    int retries = 0;
    TimePoint last_sent;
  };
  net::SeqWindow<NackState> missing_;

  // Receiver-report accounting over the current RR interval.
  std::uint64_t interval_received_ = 0;
  std::int64_t interval_expected_base_ = -1;

  std::uint64_t packets_received_ = 0;
  std::uint64_t nacks_sent_ = 0;

  // Periodic feedback timers (self-rescheduling; cancelled by the dtor).
  sim::EventId twcc_timer_{};
  sim::EventId nack_timer_{};
  sim::EventId rr_timer_{};
};

}  // namespace zhuge::transport
