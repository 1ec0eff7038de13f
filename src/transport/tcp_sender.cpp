#include "transport/tcp_sender.hpp"

#include <algorithm>

#include "net/tcp_ack.hpp"

namespace zhuge::transport {

void TcpSender::write_frame(std::uint32_t frame_id, TimePoint capture_time,
                            std::uint64_t bytes) {
  const std::uint64_t end = next_frame_start_ + bytes;
  app_queue_.push_back({frame_id, capture_time, bytes, end});
  next_frame_start_ = end;
  backlog_bytes_ += bytes;
  try_send();
}

Duration TcpSender::current_rto() const {
  Duration rto = kMinRto;
  if (srtt_ > Duration::zero()) {
    rto = std::max(kMinRto, srtt_ + rttvar_ * 4.0);
  }
  for (int i = 0; i < rto_backoff_; ++i) rto = rto * 2.0;
  return std::min(rto, kMaxRto);
}

void TcpSender::arm_rto() {
  rto_armed_ = !in_flight_.empty();
  if (!rto_armed_) return;  // a pending event finds nothing armed and lapses
  rto_deadline_ = sim_.now() + current_rto();
  if (rto_event_ != 0) {
    if (rto_event_at_ <= rto_deadline_) return;  // it re-checks when it fires
    sim_.cancel(rto_event_);  // the deadline moved earlier (backoff reset)
  }
  schedule_rto_event();
}

void TcpSender::schedule_rto_event() {
  rto_event_at_ = rto_deadline_;
  rto_event_ = sim_.schedule_at(rto_deadline_, [this] { on_rto_event(); });
}

void TcpSender::on_rto_event() {
  rto_event_ = 0;
  if (!rto_armed_) return;
  if (rto_deadline_ > sim_.now()) {
    schedule_rto_event();
    return;
  }
  rto_armed_ = false;
  on_rto_fired();
}

void TcpSender::on_rto_fired() {
  if (in_flight_.empty()) return;
  ++rto_backoff_;
  cca_->on_rto(sim_.now());
  retransmit_first_unacked();
  arm_rto();
}

void TcpSender::retransmit_first_unacked() {
  if (in_flight_.empty()) return;
  InFlight& first = in_flight_.front();
  ++first.meta.transmissions;
  ++retransmissions_;
  send_segment(first.seq, first.meta);
}

void TcpSender::send_segment(std::uint64_t seq, const SentSegment& meta) {
  Packet p;
  p.uid = uids_.next();
  p.flow = flow_;
  p.size_bytes = static_cast<std::uint32_t>(meta.end_seq - seq) + net::kTcpHeaderBytes;
  p.sent_time = sim_.now();
  net::TcpHeader h;
  h.seq = seq;
  h.end_seq = meta.end_seq;
  h.ts_val = static_cast<std::uint64_t>(sim_.now().count_ns());
  h.frame_id = meta.frame_id;
  h.frame_end_seq = meta.frame_end_seq;
  h.capture_time = meta.capture_time;
  p.header = h;
  out_(std::move(p));
}

void TcpSender::try_send() {
  const TimePoint now = sim_.now();
  const double pace = cca_->pacing_rate_bps();

  while (backlog_bytes_ > 0) {
    if (bytes_in_flight_ + cca::kMss > cca_->cwnd_bytes()) return;  // window-limited
    if (pace > 0.0 && next_send_time_ > now) {
      arm_pacing_timer(next_send_time_);
      return;
    }

    FrameChunk& chunk = app_queue_.front();
    const std::uint64_t take =
        std::min<std::uint64_t>(cca::kMss, chunk.remaining);
    SentSegment seg;
    seg.end_seq = next_seq_ + take;
    seg.sent_time = now;
    seg.frame_id = chunk.frame_id;
    seg.capture_time = chunk.capture_time;
    seg.frame_end_seq = chunk.end_seq;
    seg.delivered_at_send = delivered_bytes_;

    in_flight_.push_back({next_seq_, seg});
    bytes_in_flight_ += take;
    backlog_bytes_ -= take;
    chunk.remaining -= take;
    if (chunk.remaining == 0) app_queue_.pop_front();

    send_segment(next_seq_, seg);
    next_seq_ = seg.end_seq;

    if (pace > 0.0) {
      next_send_time_ =
          std::max(next_send_time_, now) +
          Duration::from_seconds(static_cast<double>(take + net::kTcpHeaderBytes) * 8.0 / pace);
    }
    if (!rto_armed_) arm_rto();
  }
  // Ran out of data with window to spare: everything outstanding was sent
  // while the app was the limit, so delivery-rate samples from those ACKs
  // must not be read as path capacity (Linux/BBR app_limited marking).
  if (bytes_in_flight_ + cca::kMss <= cca_->cwnd_bytes()) {
    app_limited_until_ = next_seq_;
  }
}

void TcpSender::arm_pacing_timer(TimePoint when) {
  if (pacing_timer_ != 0) return;  // already armed
  pacing_timer_ = sim_.schedule_at(when, [this] {
    pacing_timer_ = 0;
    try_send();
  });
}

void TcpSender::on_ack(const Packet& ack) {
  const TimePoint now = sim_.now();
  const net::TcpHeader& h = ack.tcp();

  // RTT sample via timestamp echo; valid because the receiver echoes the
  // ts of the segment that triggered this ACK (Karn-safe for first
  // transmissions; retransmitted segments carry a fresh ts_val, so echo
  // ambiguity only inflates, never deflates).
  Duration rtt = Duration::zero();
  if (h.ts_echo != 0) {
    rtt = now - TimePoint{static_cast<std::int64_t>(h.ts_echo)};
    if (rtt > Duration::zero()) {
      if (rtt_observer_) rtt_observer_(rtt, now);
      if (srtt_ == Duration::zero()) {
        srtt_ = rtt;
        rttvar_ = rtt * 0.5;
      } else {
        const Duration err = rtt >= srtt_ ? rtt - srtt_ : srtt_ - rtt;
        rttvar_ = rttvar_ * 0.75 + err * 0.25;
        srtt_ = srtt_ * 0.875 + rtt * 0.125;
      }
    }
  }

  // Cumulative ACK: drop fully-acked segments. The newest first-transmit
  // segment acked here anchors the delivery-rate sample (Karn's rule:
  // retransmitted segments have ambiguous flight times).
  std::uint64_t newly_acked = 0;
  bool have_sample = false;
  SentSegment sample_seg{};
  while (!in_flight_.empty()) {
    const InFlight& first = in_flight_.front();
    if (first.meta.end_seq > h.ack) break;
    newly_acked += first.meta.end_seq - first.seq;
    if (first.meta.transmissions == 1) {
      sample_seg = first.meta;
      have_sample = true;
    }
    in_flight_.pop_front();
  }
  double delivery_sample_bps = 0.0;
  if (newly_acked > 0) {
    bytes_in_flight_ -= std::min(bytes_in_flight_, newly_acked);
    snd_una_ = h.ack;
    delivered_bytes_ += newly_acked;
    delivered_rate_.record(now, static_cast<std::int64_t>(newly_acked));
    if (have_sample && now > sample_seg.sent_time) {
      // Bytes delivered across this segment's flight, over the flight
      // time: equals path throughput when the pipe stayed busy, and
      // crucially reflects the probe gain for the probe RTT alone.
      delivery_sample_bps =
          static_cast<double>(delivered_bytes_ - sample_seg.delivered_at_send) *
          8.0 / (now - sample_seg.sent_time).to_seconds();
    }
    rto_backoff_ = 0;
    dupacks_ = 0;
    arm_rto();
    // NewReno partial ACK: while in recovery, an ACK that advances
    // snd_una but leaves older data outstanding exposes the next hole —
    // retransmit it immediately instead of waiting out an RTO per hole
    // (an RTO-per-hole cascade is a death spiral under bursty loss).
    if (snd_una_ < recovery_until_ && !in_flight_.empty() &&
        in_flight_.front().seq < h.sack_upto) {
      retransmit_first_unacked();
    }
  } else if (h.ack == last_ack_ && !in_flight_.empty()) {
    ++dupacks_;
  }
  last_ack_ = h.ack;

  // Fast retransmit on dupacks or a SACK-visible hole.
  const bool sack_hole =
      h.sack_upto > h.ack + static_cast<std::uint64_t>(kDupackThreshold) * cca::kMss;
  if ((dupacks_ >= kDupackThreshold || sack_hole) && !in_flight_.empty() &&
      snd_una_ >= recovery_until_) {
    recovery_until_ = next_seq_;  // one loss event per window
    cca_->on_loss(now, cca::kMss);
    retransmit_first_unacked();
    dupacks_ = 0;
  }

  cca::AckEvent ev;
  ev.now = now;
  ev.rtt = rtt;
  ev.acked_bytes = newly_acked;
  ev.bytes_in_flight = bytes_in_flight_;
  ev.delivery_rate_bps = delivery_sample_bps > 0.0
                             ? delivery_sample_bps
                             : delivered_rate_.rate_bps(now).value_or(0.0);
  ev.app_limited = app_limited_until_ > 0 && h.ack <= app_limited_until_;
  ev.abc_echo = h.abc_echo;
  cca_->on_ack(ev);

  try_send();
}

}  // namespace zhuge::transport
