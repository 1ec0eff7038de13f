#pragma once
// FastAck (Bhartia et al., IMC 2017): a WiFi-AP optimisation that forges
// the TCP ACK as soon as the 802.11 (link-layer) ACK confirms delivery to
// the client, cutting the uplink wireless hop (segment iii of Fig. 1) out
// of the control loop. Unlike Zhuge it still waits for the packet to cross
// the downlink queue and the downlink wireless hop — which is why it helps
// less when the queue itself is the problem.
//
// The AP keeps a minimal receiver shadow (contiguous prefix) per flow and
// drops the client's own pure ACKs to avoid duplicate-ACK confusion.

#include <cstdint>
#include <map>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace zhuge::baseline {

using net::Packet;
using sim::TimePoint;

/// Per-flow TCP ACK counterfeiter.
class FastAck {
 public:
  struct Config {
    std::uint32_t ack_bytes = 40;
  };

  explicit FastAck(Config cfg) : cfg_(cfg) {}

  /// Called when a data packet of the flow is confirmed delivered over the
  /// air. Returns a forged ACK to send upstream, or nullopt when the
  /// delivery did not advance the contiguous prefix (no new ACK needed —
  /// real FastAck piggybacks on the block-ACK the same way).
  [[nodiscard]] std::optional<Packet> on_wireless_delivered(
      const Packet& data, TimePoint now, std::uint64_t ack_uid) {
    if (!data.is_tcp()) return std::nullopt;
    const net::TcpHeader& h = data.tcp();

    // Shadow receiver: merge [seq, end_seq) and advance the prefix. With
    // no out-of-order interval held, a segment starting at or below the
    // prefix just extends it, with no map node made and freed.
    if (intervals_.empty() && h.seq <= rcv_nxt_) {
      rcv_nxt_ = std::max(rcv_nxt_, h.end_seq);
    } else {
      merge_out_of_order(h.seq, h.end_seq);
    }
    max_seen_ = std::max(max_seen_, h.end_seq);

    Packet ack;
    ack.uid = ack_uid;
    ack.flow = data.flow.reversed();
    ack.size_bytes = cfg_.ack_bytes;
    ack.sent_time = now;
    net::TcpHeader ah;
    ah.is_ack = true;
    ah.ack = rcv_nxt_;
    ah.sack_upto = max_seen_;
    ah.ts_echo = h.ts_val;
    ah.abc_echo = h.abc_mark;
    ack.header = ah;
    ++forged_;
    return ack;
  }

  /// The client's own pure ACKs for this flow are suppressed.
  [[nodiscard]] static bool should_drop_uplink(const Packet& p) {
    return p.is_tcp() && p.tcp().is_ack;
  }

  [[nodiscard]] std::uint64_t forged() const { return forged_; }

 private:
  /// Merges [seq, end) into the held intervals, advances the prefix
  /// through them and drops the ones it covers.
  void merge_out_of_order(std::uint64_t seq, std::uint64_t end) {
    intervals_[seq] = std::max(intervals_[seq], end);
    while (true) {
      auto it = intervals_.find(rcv_nxt_);
      if (it == intervals_.end()) {
        auto lower = intervals_.upper_bound(rcv_nxt_);
        if (lower != intervals_.begin()) {
          auto prev = std::prev(lower);
          if (prev->second > rcv_nxt_) {
            rcv_nxt_ = prev->second;
            continue;
          }
        }
        break;
      }
      rcv_nxt_ = std::max(rcv_nxt_, it->second);
    }
    // Garbage-collect merged intervals below the prefix.
    while (!intervals_.empty() && intervals_.begin()->second <= rcv_nxt_) {
      intervals_.erase(intervals_.begin());
    }
  }

  Config cfg_;
  std::map<std::uint64_t, std::uint64_t> intervals_;  ///< seq -> end_seq
  std::uint64_t rcv_nxt_ = 0;
  std::uint64_t max_seen_ = 0;
  std::uint64_t forged_ = 0;
};

}  // namespace zhuge::baseline
