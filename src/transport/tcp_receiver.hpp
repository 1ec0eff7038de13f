#pragma once
// TCP-like receiver: per-packet cumulative ACKs with SACK-lite, timestamp
// echo, ABC mark echo, and application-level video-frame reassembly.

#include <cstdint>
#include <functional>
#include <map>

#include "net/packet.hpp"
#include "net/tcp_ack.hpp"
#include "sim/simulator.hpp"

namespace zhuge::transport {

using net::Packet;
using net::PacketHandler;
using sim::TimePoint;

/// Receiver half of the TCP-like stack.
class TcpReceiver {
 public:
  /// Called once per completed video frame: (frame_id, capture, now).
  using FrameCallback =
      std::function<void(std::uint32_t, TimePoint, TimePoint)>;

  TcpReceiver(sim::Simulator& simulator, net::PacketUidSource& uids,
              PacketHandler ack_out, FrameCallback on_frame)
      : sim_(simulator),
        uids_(uids),
        ack_out_(std::move(ack_out)),
        on_frame_(std::move(on_frame)) {}

  /// Process one data packet; emits exactly one ACK.
  void on_data(const Packet& data);

  [[nodiscard]] std::uint64_t contiguous_received() const { return rcv_.prefix(); }
  [[nodiscard]] std::uint64_t total_received_bytes() const { return total_bytes_; }

 private:
  void deliver_frames(TimePoint now);

  sim::Simulator& sim_;
  net::PacketUidSource& uids_;
  PacketHandler ack_out_;
  FrameCallback on_frame_;

  net::ContiguousPrefix rcv_;
  std::map<std::uint64_t, std::pair<std::uint32_t, TimePoint>>
      frame_ends_;  ///< frame_end_seq -> (frame_id, capture_time)
  std::uint64_t frames_delivered_upto_ = 0;  ///< last delivered frame end
  std::uint64_t total_bytes_ = 0;
};

}  // namespace zhuge::transport
