#include "transport/tcp_receiver.hpp"

namespace zhuge::transport {

void TcpReceiver::deliver_frames(TimePoint now) {
  while (!frame_ends_.empty()) {
    auto it = frame_ends_.begin();
    if (it->first > rcv_.prefix()) break;
    if (on_frame_) on_frame_(it->second.first, it->second.second, now);
    frames_delivered_upto_ = it->first;
    frame_ends_.erase(it);
  }
}

void TcpReceiver::on_data(const Packet& data) {
  const TimePoint now = sim_.now();
  const net::TcpHeader& h = data.tcp();

  total_bytes_ += h.end_seq - h.seq;
  rcv_.add(h.seq, h.end_seq);

  // Remember where this packet's frame ends so completion is detectable
  // even when the frame's packets arrive out of order. Retransmissions of
  // already-delivered frames must not re-register them.
  if (h.frame_end_seq > frames_delivered_upto_) {
    frame_ends_.try_emplace(h.frame_end_seq, h.frame_id, h.capture_time);
  }
  deliver_frames(now);
  ack_out_(net::make_tcp_ack(data, rcv_, uids_.next(), now));
}

}  // namespace zhuge::transport
