#pragma once
// RTP media sender with transport-wide congestion control (in-band
// feedback, §5.1/§5.3). Encodes frames at the CCA's target bitrate,
// packetises them into RTP packets carrying TWCC sequence numbers, keeps a
// send history for TWCC reconstruction and NACK retransmission, and feeds
// TWCC reports into GCC.

#include <cstdint>
#include <memory>
#include <vector>

#include "cca/gcc.hpp"
#include "net/packet.hpp"
#include "net/seq.hpp"
#include "stats/windowed.hpp"
#include "rtc/video.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace zhuge::transport {

using net::Packet;
using net::PacketHandler;
using sim::Duration;
using sim::TimePoint;

/// RTP sender: video pipeline + congestion control.
class RtpSender {
 public:
  struct Config {
    std::uint32_t ssrc = 1;
    rtc::VideoConfig video{};
    cca::Gcc::Config gcc{};
    std::size_t history_packets = 2048;  ///< NACK retransmission depth
  };

  static constexpr std::uint32_t kMaxPayload = 1200;
  static constexpr std::uint32_t kHeaderBytes = 40;  ///< IP+UDP+RTP overhead
  static constexpr Duration kPacingSpan = Duration::millis(5);  ///< frame burst spread
  /// Retransmissions may use at most this fraction of the target rate
  /// (measured over kRtxRateWindow). Without the cap, a loss burst
  /// turns the NACK machinery into an unbounded retransmission storm
  /// that keeps the bottleneck queue pinned full no matter what the
  /// congestion controller decides.
  static constexpr double kMaxRtxRateFraction = 0.25;
  static constexpr Duration kRtxRateWindow = Duration::millis(200);
  /// Inter-report TWCC seq gaps larger than this are treated as a
  /// feedback-path outage (the reports died, not the data) and excluded
  /// from the transport-wide loss estimate. A healthy feedback stream
  /// has gap 0; genuine tail-drop bursts between reports stay well
  /// under this. Without the guard, the first report after a feedback
  /// blackout charges the whole silent interval as data loss and GCC
  /// collapses to its floor even though every packet was delivered.
  static constexpr std::int64_t kFeedbackGapForgivePkts = 50;
  /// Transport-wide loss is computed over a pooled window of at least
  /// this many expected packets, accumulated across TWCC reports. A
  /// single report can cover only 1-2 packets at low rates, where one
  /// genuinely lost packet reads as 50-100% loss and re-triggers the GCC
  /// loss cut right as the controller climbs out of a fault.
  static constexpr std::int64_t kLossWindowMinPkts = 4;

  RtpSender(sim::Simulator& simulator, sim::Rng& rng, net::FlowId flow,
            Config cfg, net::PacketUidSource& uids, PacketHandler out);

  /// Cancels the frame tick and any still-pending paced sends so a sender
  /// can be destroyed mid-run (flow churn) without leaving callbacks that
  /// dangle into freed memory.
  ~RtpSender();

  RtpSender(const RtpSender&) = delete;
  RtpSender& operator=(const RtpSender&) = delete;

  /// Begin producing frames (call once).
  void start();

  /// Process an uplink RTCP packet (TWCC feedback, NACK, or RR).
  void on_rtcp(const Packet& p);

  [[nodiscard]] double target_rate_bps() const;
  [[nodiscard]] double encoder_rate_bps() const { return encoder_.encoder_rate_bps(); }
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::uint64_t rtx_suppressed() const { return rtx_suppressed_; }
  [[nodiscard]] const cca::Gcc& gcc() const { return gcc_; }

 private:
  void on_frame_tick();
  void send_packet(Packet&& p, Duration offset);
  void handle_twcc(const net::TwccFeedback& fb);
  void handle_nack(const net::RtcpNack& nack);

  sim::Simulator& sim_;
  sim::Rng& rng_;
  net::FlowId flow_;
  Config cfg_;
  net::PacketUidSource& uids_;
  PacketHandler out_;

  rtc::VideoEncoder encoder_;
  cca::Gcc gcc_;

  std::uint16_t next_rtp_seq_ = 0;
  std::uint16_t next_twcc_seq_ = 0;
  std::uint32_t next_frame_id_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t retransmissions_ = 0;

  struct SendRecord {
    TimePoint send_time;
    std::uint32_t size_bytes = 0;
  };
  /// TWCC send history keyed by *unwrapped* TWCC sequence. Every send,
  /// original or retransmission, takes the next sequence, so the keys are
  /// dense and the age-based prune only moves the window's start.
  net::SeqWindow<SendRecord> twcc_history_;
  net::SeqUnwrapper twcc_unwrap_rx_;  ///< unwraps seqs in feedback
  /// One report's observations; reused so TWCC handling does not allocate.
  std::vector<cca::TwccObservation> twcc_obs_;

  /// What a NACK retransmission needs of an original: its RTP header and
  /// wire size. Everything else about the packet is fresh on a resend.
  struct RtxRecord {
    net::RtpHeader header;
    std::uint32_t size_bytes = 0;
  };
  /// Retransmission history keyed by unwrapped RTP seq: the newest
  /// history_packets originals.
  net::SeqWindow<RtxRecord> rtp_history_;
  net::SeqUnwrapper rtp_unwrap_rx_;

  sim::EventId frame_timer_{};
  /// Paced sends still pending from the current frame. The pacing span is
  /// clamped below the frame interval, so every entry has fired by the next
  /// tick and the vector is cleared there (never grows past one frame).
  std::vector<sim::EventId> pacing_timers_;
  /// Packets awaiting their pacing offset. Parked here so the pacing
  /// events carry a 4-byte slot index instead of the whole packet; slots
  /// recycle within a frame interval, so the pool peaks at one frame's
  /// packetisation and never grows again.
  sim::Pool<Packet> paced_pool_;

  double last_loss_fraction_ = 0.0;
  std::int64_t twcc_loss_base_ = 0;  ///< next expected unwrapped TWCC seq
  std::int64_t twcc_loss_expected_ = 0;  ///< pooled window: expected pkts
  std::int64_t twcc_loss_received_ = 0;  ///< pooled window: reported pkts
  stats::WindowedRate rtx_rate_{kRtxRateWindow};
  std::uint64_t rtx_suppressed_ = 0;
};

}  // namespace zhuge::transport
