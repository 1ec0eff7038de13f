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
#include <optional>

#include "net/packet.hpp"
#include "net/tcp_ack.hpp"
#include "sim/time.hpp"

namespace zhuge::baseline {

using net::Packet;
using sim::TimePoint;

/// Per-flow TCP ACK counterfeiter.
class FastAck {
 public:
  /// Called when a data packet of the flow is confirmed delivered over the
  /// air. Returns a forged ACK to send upstream, or nullopt when the
  /// packet is not TCP data.
  [[nodiscard]] std::optional<Packet> on_wireless_delivered(
      const Packet& data, TimePoint now, std::uint64_t ack_uid) {
    if (!data.is_tcp()) return std::nullopt;
    const net::TcpHeader& h = data.tcp();
    rcv_.add(h.seq, h.end_seq);  // the shadow receiver
    ++forged_;
    return net::make_tcp_ack(data, rcv_, ack_uid, now);
  }

  /// The client's own pure ACKs for this flow are suppressed.
  [[nodiscard]] static bool should_drop_uplink(const Packet& p) {
    return p.is_tcp() && p.tcp().is_ack;
  }

  [[nodiscard]] std::uint64_t forged() const { return forged_; }

 private:
  net::ContiguousPrefix rcv_;
  std::uint64_t forged_ = 0;
};

}  // namespace zhuge::baseline
