#pragma once
// TCP-like reliable sender for RTC-over-TCP flows (§5.1 "out-of-band
// feedback"). Byte-sequenced, cumulatively ACKed, paced by a pluggable
// CongestionControl. The application pushes video frames; the receiver
// side reconstructs frame completion from framing metadata.
//
// Deliberately RTC-flavoured: per-packet ACKs (no delayed ACK), SACK-lite
// loss recovery, Karn-compliant RTT sampling via timestamp echo — the
// pieces the evaluated CCAs (Copa, BBR, ABC) actually consume.

#include <cstdint>
#include <memory>

#include "cca/cca.hpp"
#include "net/packet.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "stats/windowed.hpp"

namespace zhuge::transport {

using net::Packet;
using net::PacketHandler;
using sim::Duration;
using sim::TimePoint;

/// Reliable paced byte-stream sender.
class TcpSender {
 public:
  static constexpr Duration kMinRto = Duration::millis(200);
  static constexpr Duration kMaxRto = Duration::seconds(4);
  static constexpr int kDupackThreshold = 3;

  TcpSender(sim::Simulator& simulator, net::FlowId flow,
            std::unique_ptr<cca::CongestionControl> cca,
            net::PacketUidSource& uids, PacketHandler out)
      : sim_(simulator),
        flow_(flow),
        cca_(std::move(cca)),
        uids_(uids),
        out_(std::move(out)),
        delivered_rate_(Duration::millis(500)) {}

  /// Cancels the RTO and pacing timers so a sender can be destroyed
  /// mid-run (flow churn) without dangling callbacks.
  ~TcpSender() {
    if (rto_event_ != 0) sim_.cancel(rto_event_);
    if (pacing_timer_ != 0) sim_.cancel(pacing_timer_);
  }

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Queue one application video frame of `bytes` bytes for transmission.
  void write_frame(std::uint32_t frame_id, TimePoint capture_time, std::uint64_t bytes);

  /// Process an incoming ACK packet of this flow.
  void on_ack(const Packet& ack);

  /// Observe every valid RTT sample the sender measures (Fig. 10's
  /// "measured RTT at the server" — shifted forward under Zhuge).
  using RttObserver = std::function<void(Duration, TimePoint)>;
  void set_rtt_observer(RttObserver obs) { rtt_observer_ = std::move(obs); }

  [[nodiscard]] cca::CongestionControl& congestion_control() { return *cca_; }
  [[nodiscard]] std::uint64_t bytes_in_flight() const { return bytes_in_flight_; }
  [[nodiscard]] std::uint64_t backlog_bytes() const { return backlog_bytes_; }
  [[nodiscard]] Duration smoothed_rtt() const { return srtt_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  /// The RTO an arm would set now: max(kMinRto, srtt + 4·rttvar), doubled
  /// per consecutive expiry, capped at kMaxRto.
  [[nodiscard]] Duration current_rto() const;
  /// Delivery rate seen through ACKs (bps), for logging/benches.
  [[nodiscard]] double delivery_rate_bps(TimePoint now) {
    return delivered_rate_.rate_bps(now).value_or(0.0);
  }

 private:
  struct FrameChunk {
    std::uint32_t frame_id;
    TimePoint capture_time;
    std::uint64_t remaining;
    std::uint64_t end_seq;  ///< stream offset one past this frame
  };
  struct SentSegment {
    std::uint64_t end_seq;
    TimePoint sent_time;
    std::uint32_t frame_id;
    TimePoint capture_time;
    std::uint64_t frame_end_seq;
    /// Cumulative bytes delivered when this segment left: the ACK-time
    /// delivery-rate sample is (delivered_now - delivered_at_send) over
    /// the segment's flight time (BBR's rate estimator). A windowed
    /// average would dilute the one-RTT 1.25x probe cycle below the max
    /// filter's notice and bandwidth could never be rediscovered.
    std::uint64_t delivered_at_send = 0;
    int transmissions = 1;
  };
  /// An unacknowledged segment [seq, meta.end_seq).
  struct InFlight {
    std::uint64_t seq;
    SentSegment meta;
  };

  void try_send();
  void send_segment(std::uint64_t seq, const SentSegment& meta);
  void arm_pacing_timer(TimePoint when);
  void arm_rto();
  void schedule_rto_event();
  void on_rto_event();
  void on_rto_fired();
  void retransmit_first_unacked();

  sim::Simulator& sim_;
  net::FlowId flow_;
  std::unique_ptr<cca::CongestionControl> cca_;
  net::PacketUidSource& uids_;
  PacketHandler out_;

  // Application backlog.
  sim::Ring<FrameChunk> app_queue_;
  std::uint64_t backlog_bytes_ = 0;
  std::uint64_t next_frame_start_ = 0;  ///< stream offset for the next frame

  // Sequencing.
  std::uint64_t next_seq_ = 0;  ///< next new byte to send
  std::uint64_t snd_una_ = 0;   ///< oldest unacknowledged byte
  /// Sent in seq order and acked cumulatively, so in-flight segments form
  /// a FIFO: new ones append at the back, ACKs retire from the front and
  /// retransmissions read the front.
  sim::Ring<InFlight> in_flight_;
  std::uint64_t bytes_in_flight_ = 0;
  /// ACKs for data at or below this offset carry delivery-rate samples
  /// taken while the app (not cwnd/pacing) limited sending — the sample
  /// measures offered load, not path capacity (BBR-style app_limited).
  std::uint64_t app_limited_until_ = 0;
  std::uint64_t delivered_bytes_ = 0;  ///< cumulative delivered (see above)

  // RTT estimation (timestamp echo; Karn's rule via transmissions==1).
  Duration srtt_ = Duration::zero();
  Duration rttvar_ = Duration::zero();

  // Loss detection.
  std::uint64_t last_ack_ = 0;
  int dupacks_ = 0;
  std::uint64_t recovery_until_ = 0;  ///< fast-recovery high-water mark

  // Pacing.
  TimePoint next_send_time_;
  sim::EventId pacing_timer_ = 0;

  // RTO: a deadline plus at most one pending event, which may fire early
  // (the deadline moved later since it was scheduled) and then re-checks.
  // Re-arming on every ACK therefore costs no cancel and no stale entry.
  bool rto_armed_ = false;
  TimePoint rto_deadline_;
  sim::EventId rto_event_ = 0;
  TimePoint rto_event_at_;  ///< when rto_event_ fires
  int rto_backoff_ = 0;

  stats::WindowedRate delivered_rate_;
  std::uint64_t retransmissions_ = 0;
  RttObserver rtt_observer_;
};

}  // namespace zhuge::transport
