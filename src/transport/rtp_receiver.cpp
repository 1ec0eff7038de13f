#include "transport/rtp_receiver.hpp"

#include <algorithm>

namespace zhuge::transport {

Packet RtpReceiver::make_rtcp(net::RtcpHeader h) {
  Packet p;
  p.uid = uids_.next();
  p.flow = reverse_flow_;
  p.size_bytes = kRtcpBytes;
  p.sent_time = sim_.now();
  p.header = std::move(h);
  return p;
}

RtpReceiver::~RtpReceiver() {
  sim_.cancel(twcc_timer_);
  sim_.cancel(nack_timer_);
  sim_.cancel(rr_timer_);
}

void RtpReceiver::arm_timers() {
  arm_timers_twcc();
  arm_timers_nack();
  arm_timers_rr();
}

void RtpReceiver::arm_timers_twcc() {
  twcc_timer_ = sim_.schedule_after(kTwccInterval, [this] {
    send_twcc();
    arm_timers_twcc();
  });
}

void RtpReceiver::arm_timers_nack() {
  nack_timer_ = sim_.schedule_after(kNackRetryInterval, [this] {
    send_nacks();
    arm_timers_nack();
  });
}

void RtpReceiver::arm_timers_rr() {
  rr_timer_ = sim_.schedule_after(kRrInterval, [this] {
    send_rr();
    arm_timers_rr();
  });
}

void RtpReceiver::on_rtp(const Packet& p) {
  const TimePoint now = sim_.now();
  const net::RtpHeader& h = p.rtp();
  ++packets_received_;
  // Receiver-report loss counts *original* transmissions only: a packet
  // recovered by NACK retransmission was still lost on the path, and the
  // loss-based controllers need to see it.
  if (!h.retransmission) ++interval_received_;

  if (!flow_known_) {
    reverse_flow_ = p.flow.reversed();
    flow_known_ = true;
  }

  pending_twcc_.push_back({h.twcc_seq, now});

  // Loss tracking on unwrapped RTP seq.
  const std::int64_t seq = rtp_unwrap_.unwrap(h.seq);
  if (interval_expected_base_ < 0) interval_expected_base_ = seq;
  if (seq > highest_rtp_) {
    // Every sequence skipped over is missing until it arrives.
    while (missing_.end_seq() <= seq) {
      const bool skipped = missing_.end_seq() < seq;
      missing_.push_back() = NackState{skipped, 0, TimePoint{}};
    }
    highest_rtp_ = seq;
  } else if (missing_.contains(seq)) {
    missing_[seq].missing = false;  // retransmission or reordering filled a hole
  }
  drop_settled_prefix();

  // Frame reassembly. Frames below the window were decoded or abandoned;
  // a late packet of theirs carries nothing the decoder still needs.
  const std::int64_t frame = h.frame_id;
  if (frame >= frames_.begin_seq()) {
    while (frames_.end_seq() <= frame) {
      // A recycled slot: clear it, keeping the bitmap's capacity.
      FrameState& fresh = frames_.push_back();
      std::fill(fresh.received.begin(), fresh.received.end(), 0);
      fresh.received_count = 0;
      fresh.total = 0;
      fresh.seen = false;
      fresh.complete = false;
    }
    FrameState& fs = frames_[frame];
    fs.total = h.packets_in_frame;
    fs.capture = h.capture_time;
    if (!fs.seen) {
      fs.seen = true;
      fs.first_arrival = now;
    }
    const std::size_t word = h.packet_in_frame / 64u;
    const std::uint64_t bit = std::uint64_t{1} << (h.packet_in_frame % 64u);
    if (fs.received.size() <= word) fs.received.resize(word + 1, 0);
    if ((fs.received[word] & bit) == 0) {
      fs.received[word] |= bit;
      ++fs.received_count;
    }
    if (!fs.complete && fs.decodable()) {
      fs.complete = true;
      fs.complete_time = now;
    }
  }
  try_decode();
}

void RtpReceiver::try_decode() {
  // Strictly in-order decode: a frame decodes only when complete and all
  // previous frames have been decoded (reference dependency).
  while (!frames_.empty()) {
    const std::int64_t id = frames_.begin_seq();
    const FrameState& fs = frames_[id];
    if (!fs.decodable()) break;
    stats_.on_frame_decoded(fs.capture, sim_.now());
    if (obs::attrib_enabled()) {
      obs::FrameSpan span;
      span.flow_key = cfg_.ssrc;
      span.frame_id = static_cast<std::uint32_t>(id);
      span.capture_ns = fs.capture.count_ns();
      span.first_arrival_ns = fs.seen ? fs.first_arrival.count_ns() : -1;
      span.complete_ns = fs.complete ? fs.complete_time.count_ns() : -1;
      span.decode_ns = sim_.now().count_ns();
      span.packets = fs.total;
      stats_.on_frame_span(span);
    }
    frames_.drop_before(id + 1);
  }
}

void RtpReceiver::send_twcc() {
  if (flow_known_ && !pending_twcc_.empty()) {
    net::TwccFeedback fb;
    fb.ssrc = cfg_.ssrc;
    // Copied, not moved: the pending buffer keeps its capacity, so the
    // per-packet appends between reports stop reallocating.
    fb.entries = pending_twcc_;
    pending_twcc_.clear();
    rtcp_out_(make_rtcp(net::RtcpHeader{std::move(fb)}));
  }
}

void RtpReceiver::maybe_skip_stalled() {
  // A permanently-lost frame (NACK budget exhausted at both ends) would
  // stall the in-order decoder forever; abandon it after stall_timeout.
  const TimePoint now = sim_.now();
  while (!frames_.empty()) {
    const std::int64_t head = frames_.begin_seq();
    const FrameState& fs = frames_[head];
    if (!fs.seen) {
      // Head frame entirely missing but newer frames exist and are aging.
      std::int64_t oldest = head + 1;
      while (oldest < frames_.end_seq() && !frames_[oldest].seen) ++oldest;
      if (oldest < frames_.end_seq() &&
          now - frames_[oldest].first_arrival > cfg_.stall_timeout) {
        frames_.drop_before(head + 1);
        continue;
      }
      break;
    }
    if (fs.decodable()) {
      try_decode();
      continue;
    }
    if (now - fs.first_arrival > cfg_.stall_timeout) {
      frames_.drop_before(head + 1);
      continue;
    }
    break;
  }
}

void RtpReceiver::send_nacks() {
  maybe_skip_stalled();
  if (!flow_known_ || missing_.empty()) return;
  const TimePoint now = sim_.now();
  net::RtcpNack nack;
  nack.ssrc = cfg_.ssrc;
  for (std::int64_t s = missing_.begin_seq(); s < missing_.end_seq(); ++s) {
    NackState& st = missing_[s];
    if (!st.missing) continue;
    if (st.retries >= kMaxNackRetries) {
      st.missing = false;  // give up; frame will stall until skipped
      continue;
    }
    if (st.retries == 0 || now - st.last_sent >= kNackRetryInterval) {
      nack.seqs.push_back(static_cast<std::uint16_t>(s & 0xFFFF));
      ++st.retries;
      st.last_sent = now;
    }
  }
  drop_settled_prefix();
  if (!nack.seqs.empty()) {
    ++nacks_sent_;
    rtcp_out_(make_rtcp(net::RtcpHeader{std::move(nack)}));
  }
}

void RtpReceiver::drop_settled_prefix() {
  // Received or given-up sequences at the front leave the window.
  while (!missing_.empty() && !missing_[missing_.begin_seq()].missing) {
    missing_.drop_before(missing_.begin_seq() + 1);
  }
}

void RtpReceiver::send_rr() {
  if (!flow_known_) return;
  net::RtcpReceiverReport rr;
  rr.ssrc = cfg_.ssrc;
  const std::int64_t expected =
      interval_expected_base_ >= 0 ? highest_rtp_ - interval_expected_base_ + 1 : 0;
  if (expected > 0) {
    const double lost = std::max<double>(
        0.0, static_cast<double>(expected) - static_cast<double>(interval_received_));
    rr.loss_fraction = lost / static_cast<double>(expected);
  }
  rr.highest_seq = static_cast<std::uint32_t>(std::max<std::int64_t>(highest_rtp_, 0));
  interval_received_ = 0;
  interval_expected_base_ = highest_rtp_ + 1;
  rtcp_out_(make_rtcp(net::RtcpHeader{rr}));
}

}  // namespace zhuge::transport
