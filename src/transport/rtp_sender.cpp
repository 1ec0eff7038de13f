#include "transport/rtp_sender.hpp"

#include <algorithm>

namespace zhuge::transport {

RtpSender::RtpSender(sim::Simulator& simulator, sim::Rng& rng, net::FlowId flow,
                     Config cfg, net::PacketUidSource& uids, PacketHandler out)
    : sim_(simulator),
      rng_(rng),
      flow_(flow),
      cfg_(cfg),
      uids_(uids),
      out_(std::move(out)),
      encoder_(cfg.video, rng),
      gcc_(cfg.gcc) {}

RtpSender::~RtpSender() {
  sim_.cancel(frame_timer_);
  for (const sim::EventId id : pacing_timers_) sim_.cancel(id);
}

void RtpSender::start() { on_frame_tick(); }

double RtpSender::target_rate_bps() const { return gcc_.target_rate_bps(); }

void RtpSender::on_frame_tick() {
  // All of the previous frame's paced sends have fired (their offsets are
  // clamped strictly below the frame interval), so drop the stale ids.
  pacing_timers_.clear();
  const TimePoint capture = sim_.now();
  const std::uint64_t frame_bytes = encoder_.next_frame_bytes(target_rate_bps());
  const std::uint32_t frame_id = next_frame_id_++;
  ++frames_sent_;

  const auto n_packets = static_cast<std::uint16_t>(
      (frame_bytes + kMaxPayload - 1) / kMaxPayload);
  std::uint64_t remaining = frame_bytes;
  for (std::uint16_t i = 0; i < n_packets; ++i) {
    const auto payload = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kMaxPayload, remaining));
    remaining -= payload;

    Packet p;
    p.uid = uids_.next();
    p.flow = flow_;
    p.size_bytes = payload + kHeaderBytes;
    p.sent_time = sim_.now();
    // Packetisation instant: the pacing stage measures from here to the
    // (possibly deferred) wire departure in send_packet's pacing timer.
    ZHUGE_SPAN_STAMP(p.span.paced_ns, sim_.now());
    net::RtpHeader h;
    h.ssrc = cfg_.ssrc;
    h.seq = next_rtp_seq_++;
    h.twcc_seq = next_twcc_seq_++;
    h.frame_id = frame_id;
    h.packet_in_frame = i;
    h.packets_in_frame = n_packets;
    h.marker = (i + 1 == n_packets);
    h.capture_time = capture;
    p.header = h;

    // Spread the frame's packets over a short pacing span (senders burst
    // frames out quickly to minimise latency, §3.1). Clamp the span below
    // the frame interval so paced sends never outlive the tick that
    // scheduled them (keeps pacing_timers_ bookkeeping one frame deep).
    const Duration span = std::min(kPacingSpan, encoder_.frame_interval());
    const Duration offset =
        n_packets > 1 ? span * (static_cast<double>(i) /
                                static_cast<double>(n_packets))
                      : Duration::zero();
    send_packet(std::move(p), offset);
  }

  frame_timer_ =
      sim_.schedule_after(encoder_.frame_interval(), [this] { on_frame_tick(); });
}

void RtpSender::send_packet(Packet&& p, Duration offset) {
  // Record send history at the *scheduled* departure time.
  const TimePoint departure = sim_.now() + offset;
  twcc_history_.push_back() = {departure, p.size_bytes};
  rtp_history_.push_back() = {p.rtp(), p.size_bytes};
  // Keep the newest history_packets originals for retransmission, and
  // bound the TWCC history alongside: past 4x that depth, keep only the
  // newest 2x + 1.
  const auto depth = static_cast<std::int64_t>(cfg_.history_packets);
  rtp_history_.drop_before(rtp_history_.end_seq() - depth);
  if (twcc_history_.size() > 4 * cfg_.history_packets) {
    twcc_history_.drop_before(twcc_history_.end_seq() - 1 - 2 * depth);
  }

  ++packets_sent_;
  if (offset == Duration::zero()) {
    out_(std::move(p));
  } else {
    const sim::Pool<Packet>::Index idx = paced_pool_.put(std::move(p));
    pacing_timers_.push_back(sim_.schedule_after(offset, [this, idx] {
      // Hand the parked packet off in place; the slot is freed after.
      Packet& pkt = paced_pool_.at(idx);
      pkt.sent_time = sim_.now();
      out_(std::move(pkt));
      paced_pool_.release(idx);
    }));
  }
}

void RtpSender::on_rtcp(const Packet& p) {
  const auto& payload = p.rtcp().payload;
  if (const auto* fb = std::get_if<net::TwccFeedback>(&payload)) {
    handle_twcc(*fb);
  } else if (const auto* nack = std::get_if<net::RtcpNack>(&payload)) {
    handle_nack(*nack);
  } else if (const auto* rr = std::get_if<net::RtcpReceiverReport>(&payload)) {
    last_loss_fraction_ = rr->loss_fraction;
    gcc_.on_loss_report(rr->loss_fraction, sim_.now());
  }
}

void RtpSender::handle_twcc(const net::TwccFeedback& fb) {
  std::vector<cca::TwccObservation>& obs = twcc_obs_;
  obs.clear();
  std::int64_t min_seq = INT64_MAX;
  std::int64_t max_seq = INT64_MIN;
  bool send_ordered = true;  // send times strictly increasing so far
  for (const auto& e : fb.entries) {
    const std::int64_t unwrapped = twcc_unwrap_rx_.unwrap(e.twcc_seq);
    min_seq = std::min(min_seq, unwrapped);
    max_seq = std::max(max_seq, unwrapped);
    if (!twcc_history_.contains(unwrapped)) continue;
    const SendRecord& sent = twcc_history_[unwrapped];
    if (!obs.empty() && !(obs.back().send_time < sent.send_time)) send_ordered = false;
    obs.push_back({e.twcc_seq, sent.send_time, e.recv_time, sent.size_bytes});
  }
  if (obs.empty()) return;
  // GCC consumes observations in send order. A report lists packets in
  // arrival order, which is send order unless a retransmission or a
  // reordering came between. Strictly increasing send times have exactly
  // one sorted order, so skipping the sort there changes nothing; an
  // inversion or a tie takes the same (unstable) sort as always, so even
  // the order of ties is unchanged.
  if (!send_ordered) {
    std::sort(obs.begin(), obs.end(), [](const auto& a, const auto& b) {
      return a.send_time < b.send_time;
    });
  }

  // Transport-wide loss: sequence gaps between consecutive feedback ranges
  // are packets the path dropped (tail drops stay visible under Zhuge
  // because the AP never reports packets it discarded).
  // A much larger gap than any plausible drop burst means the *feedback*
  // stream was interrupted (uplink blackout, AP fail-open transition):
  // the unreported packets were delivered, their reports died. Rebase
  // instead of charging the gap as data loss.
  if (twcc_loss_base_ >= 0 &&
      min_seq - twcc_loss_base_ > kFeedbackGapForgivePkts) {
    twcc_loss_base_ = min_seq;
  }
  if (twcc_loss_base_ >= 0 && max_seq >= twcc_loss_base_) {
    const std::int64_t expected = max_seq - twcc_loss_base_ + 1;
    const std::int64_t received = static_cast<std::int64_t>(fb.entries.size());
    // Pool reports until the window holds enough packets for the fraction
    // to be meaningful. At low send rates a report can cover 1-2 packets,
    // where a single missing report reads as 50-100% loss — one such
    // report right after a recovery re-triggers the loss cut and traps the
    // controller at its floor.
    twcc_loss_expected_ += expected;
    twcc_loss_received_ += std::min(received, expected);
    if (twcc_loss_expected_ >= kLossWindowMinPkts) {
      const double loss = std::max(
          0.0, 1.0 - static_cast<double>(twcc_loss_received_) /
                         static_cast<double>(twcc_loss_expected_));
      // Smooth across windows (one covers a few tens of ms only).
      last_loss_fraction_ = 0.7 * last_loss_fraction_ + 0.3 * loss;
      gcc_.on_loss_report(last_loss_fraction_, sim_.now());
      twcc_loss_expected_ = 0;
      twcc_loss_received_ = 0;
    }
  }
  twcc_loss_base_ = max_seq + 1;

  gcc_.on_feedback(obs, sim_.now());
}

void RtpSender::handle_nack(const net::RtcpNack& nack) {
  const double rtx_budget_bps = kMaxRtxRateFraction * target_rate_bps();
  for (std::uint16_t seq : nack.seqs) {
    if (rtx_rate_.rate_bps(sim_.now()).value_or(0.0) > rtx_budget_bps) {
      // Retransmission budget exhausted; the receiver will NACK again.
      ++rtx_suppressed_;
      continue;
    }
    const std::int64_t unwrapped = rtp_unwrap_rx_.unwrap(seq);
    if (!rtp_history_.contains(unwrapped)) continue;
    const RtxRecord& original = rtp_history_[unwrapped];
    // A new wire journey: fresh uid, send time and span; the header keeps
    // the original's frame placement.
    Packet rtx;
    rtx.uid = uids_.next();
    rtx.flow = flow_;
    rtx.size_bytes = original.size_bytes;
    rtx.sent_time = sim_.now();
    ZHUGE_SPAN_STAMP(rtx.span.paced_ns, sim_.now());
    net::RtpHeader h = original.header;
    h.retransmission = true;
    // Retransmissions travel with fresh TWCC sequence numbers.
    h.twcc_seq = next_twcc_seq_++;
    rtx.header = h;
    twcc_history_.push_back() = {sim_.now(), rtx.size_bytes};
    ++retransmissions_;
    ++packets_sent_;
    rtx_rate_.record(sim_.now(), rtx.size_bytes);
    out_(std::move(rtx));
  }
}

}  // namespace zhuge::transport
