#pragma once
// Zhuge Feedback Updater — in-band protocols (§5.3).
//
// For RTP/RTCP the receiver writes per-packet arrival timestamps into TWCC
// feedback packets. Zhuge instead:
//   Step 1 — on every downlink RTP packet, records (twcc_seq,
//            predicted_recv_time = now + totalDelay) on the AP clock;
//   Step 2 — periodically constructs a TWCC feedback packet itself from
//            the recorded fortunes and sends it straight up the (wired)
//            WAN path, while dropping the client's own TWCC packets to
//            keep the sender's timestamp stream consistent.
// Other RTCP (NACK, receiver reports) passes through untouched. Timestamps
// all come from one AP clock, so the sender's delta-based CCA (GCC) needs
// no synchronisation — exactly the argument of §5.3.
//
// Robustness contract (chaos-tested):
//  * entries are sorted and deduped by unwrapped TWCC sequence before a
//    feedback packet is built, so duplicated / reordered downlink RTP
//    after a fault cannot produce a non-monotone AP-built TWCC
//    (checked: feedback.twcc_monotone);
//  * the flush timer is cancelled on destruction — a flow torn down
//    mid-run (AP restart) must not leave a dangling callback;
//  * flush_now() / reset_after_outage() let the owner drain or wipe state
//    at teardown and across outages, and on_clock_jump() rebases the
//    monotone reported-receive clamp after a clock discontinuity.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "net/seq.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace zhuge::core {

using net::Packet;
using sim::Duration;
using sim::TimePoint;

/// Configuration for the in-band updater.
struct InbandConfig {
  Duration feedback_interval = Duration::millis(25);  ///< TWCC send period
  std::size_t max_entries_per_feedback = 128;

  friend bool operator==(const InbandConfig&, const InbandConfig&) = default;
};

/// Per-flow in-band feedback constructor.
class InbandFeedbackUpdater {
 public:
  static constexpr std::uint32_t kFeedbackPacketBytes = 80;  ///< wire size of built TWCC

  /// `send_feedback` receives AP-constructed TWCC packets destined for the
  /// sender (they enter the AP's wired uplink, bypassing the wireless hop).
  InbandFeedbackUpdater(sim::Simulator& simulator, InbandConfig cfg,
                        net::FlowId media_flow, std::uint32_t ssrc,
                        net::PacketHandler send_feedback)
      : sim_(simulator),
        cfg_(cfg),
        media_flow_(media_flow),
        ssrc_(ssrc),
        send_feedback_(std::move(send_feedback)) {}

  ~InbandFeedbackUpdater() {
    if (timer_ != 0) sim_.cancel(timer_);
  }

  InbandFeedbackUpdater(const InbandFeedbackUpdater&) = delete;
  InbandFeedbackUpdater& operator=(const InbandFeedbackUpdater&) = delete;

  /// Step 1: record the fortune of a downlink RTP packet.
  ///
  /// Reported receive times are clamped to be non-decreasing: a real
  /// receiver's arrival clock is monotonic, and per-packet prediction
  /// noise (head-of-queue wait sawtooth under AMPDU batching) must not
  /// surface as negative inter-arrival gradients at the sender.
  void on_rtp_packet(const net::RtpHeader& rtp, Duration predicted_delay) {
    TimePoint predicted_recv = sim_.now() + predicted_delay + skew_;
    if (predicted_recv < last_reported_recv_) predicted_recv = last_reported_recv_;
    last_reported_recv_ = predicted_recv;
    ZHUGE_METRIC_INC("feedback.inband.rtp_recorded");
    ZHUGE_TRACE(sim_.now(), "feedback.inband", "record_fortune",
                {"twcc_seq", double(rtp.twcc_seq)},
                {"predicted_delay_ms", predicted_delay.to_millis()},
                {"pending", double(pending_.size() + 1)});
    pending_.push_back({unwrapper_.unwrap(rtp.twcc_seq), rtp.twcc_seq,
                        predicted_recv});
    if (timer_ == 0) {
      timer_ = sim_.schedule_after(cfg_.feedback_interval, [this] {
        timer_ = 0;
        flush();
      });
    }
  }

  /// Filter for uplink RTCP: returns true when the packet must be dropped
  /// (a client-built TWCC for our flow — Zhuge replaces those).
  [[nodiscard]] bool should_drop_uplink(const Packet& p) const {
    if (!p.is_rtcp()) return false;
    const auto* fb = std::get_if<net::TwccFeedback>(&p.rtcp().payload);
    return fb != nullptr && fb->ssrc == ssrc_;
  }

  [[nodiscard]] std::uint64_t feedback_sent() const { return feedback_sent_; }
  [[nodiscard]] std::size_t pending_entries() const { return pending_.size(); }

  /// Drain every recorded fortune into feedback packets right now
  /// (teardown / fail-open): the sender keeps receiving a consistent
  /// timestamp stream for packets whose client TWCC was already dropped.
  void flush_now() {
    while (!pending_.empty()) flush();
    if (timer_ != 0) {  // an intermediate flush() may have re-armed it
      sim_.cancel(timer_);
      timer_ = 0;
    }
  }

  /// Wipe recorded fortunes and the sequence unwrapper after an outage or
  /// AP restart. The monotone reported-receive clamp is kept: the sender
  /// already saw those timestamps and a restarted AP must not report
  /// receive times that run backwards past them.
  void reset_after_outage() {
    if (timer_ != 0) {
      sim_.cancel(timer_);
      timer_ = 0;
    }
    pending_.clear();
    unwrapper_ = net::SeqUnwrapper{};
  }

  /// Clock discontinuity on the AP: remember the offset so reported
  /// receive times stay continuous on the sender's timeline, and rebase
  /// the monotone clamp if the jump was backward (otherwise every future
  /// fortune would be pinned to the pre-jump clock).
  void on_clock_jump(Duration delta) {
    skew_ = skew_ - delta;
    const TimePoint now = sim_.now();
    if (last_reported_recv_ > now + skew_ + Duration::millis(1000)) {
      last_reported_recv_ = now + skew_;
    }
  }

 private:
  /// Step 2: build and send one TWCC packet from the recorded fortunes.
  void flush() {
    if (!pending_.empty()) {
      // Faults upstream (duplication, reordering) can hand us RTP out of
      // order or twice; the sender expects one monotone entry per seq.
      // Fault-free input is already strictly increasing, its own sorted
      // and deduplicated form, so only disordered input pays for the sort.
      const auto not_increasing = [](const Entry& a, const Entry& b) {
        return a.seq64 >= b.seq64;
      };
      if (std::adjacent_find(pending_.begin(), pending_.end(), not_increasing) !=
          pending_.end()) {
        std::sort(pending_.begin(), pending_.end(),
                  [](const Entry& a, const Entry& b) { return a.seq64 < b.seq64; });
        pending_.erase(std::unique(pending_.begin(), pending_.end(),
                                   [](const Entry& a, const Entry& b) {
                                     return a.seq64 == b.seq64;
                                   }),
                       pending_.end());
      }

      net::TwccFeedback fb;
      fb.ssrc = ssrc_;
      fb.constructed_by_ap = true;
      const std::size_t n = std::min(pending_.size(), cfg_.max_entries_per_feedback);
      fb.entries.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        ZHUGE_INVARIANT(sim_.now(), "feedback.twcc_monotone",
                        i == 0 || pending_[i].seq64 > pending_[i - 1].seq64,
                        "AP-built TWCC entries not strictly increasing");
        fb.entries.push_back({pending_[i].twcc_seq, pending_[i].predicted_recv});
      }
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(n));

      Packet p;
      p.flow = media_flow_.reversed();
      p.size_bytes = kFeedbackPacketBytes;
      p.sent_time = sim_.now();
      p.header = net::RtcpHeader{std::move(fb)};
      ++feedback_sent_;
      ZHUGE_METRIC_INC("feedback.inband.twcc_sent");
      ZHUGE_TRACE(sim_.now(), "feedback.inband", "twcc_flush",
                  {"entries", double(n)}, {"backlog", double(pending_.size())});
      send_feedback_(std::move(p));
    }
    if (!pending_.empty() && timer_ == 0) {
      timer_ = sim_.schedule_after(cfg_.feedback_interval, [this] {
        timer_ = 0;
        flush();
      });
    }
  }

  struct Entry {
    std::int64_t seq64;  ///< unwrapped twcc_seq, sort/dedupe key
    std::uint16_t twcc_seq;
    TimePoint predicted_recv;
  };

  sim::Simulator& sim_;
  InbandConfig cfg_;
  net::FlowId media_flow_;
  std::uint32_t ssrc_;
  net::PacketHandler send_feedback_;
  std::vector<Entry> pending_;
  net::SeqUnwrapper unwrapper_;
  sim::EventId timer_ = 0;
  std::uint64_t feedback_sent_ = 0;
  TimePoint last_reported_recv_;
  Duration skew_ = Duration::zero();  ///< AP-clock offset after jumps
};

}  // namespace zhuge::core
