#include "transport/tcp_receiver.hpp"

namespace zhuge::transport {

void TcpReceiver::merge_interval(std::uint64_t start, std::uint64_t end) {
  if (end <= rcv_nxt_) return;  // duplicate
  start = std::max(start, rcv_nxt_);
  // In order and touching no out-of-order interval (every one starts
  // above rcv_nxt_): the prefix just grows, with no map node made and freed.
  if (start == rcv_nxt_ && (ooo_.empty() || ooo_.begin()->first > end)) {
    rcv_nxt_ = end;
    return;
  }

  // Insert [start, end) into the out-of-order set, merging overlaps.
  auto it = ooo_.lower_bound(start);
  if (it != ooo_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) {
      start = prev->first;
      end = std::max(end, prev->second);
      it = ooo_.erase(prev);
    }
  }
  while (it != ooo_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = ooo_.erase(it);
  }
  ooo_.emplace(start, end);

  // Advance the contiguous prefix.
  while (!ooo_.empty()) {
    auto first = ooo_.begin();
    if (first->first > rcv_nxt_) break;
    rcv_nxt_ = std::max(rcv_nxt_, first->second);
    ooo_.erase(first);
  }
}

void TcpReceiver::deliver_frames(TimePoint now) {
  while (!frame_ends_.empty()) {
    auto it = frame_ends_.begin();
    if (it->first > rcv_nxt_) break;
    if (on_frame_) on_frame_(it->second.first, it->second.second, now);
    frames_delivered_upto_ = it->first;
    frame_ends_.erase(it);
  }
}

void TcpReceiver::on_data(const Packet& data) {
  const TimePoint now = sim_.now();
  const net::TcpHeader& h = data.tcp();

  total_bytes_ += h.end_seq - h.seq;
  max_seen_ = std::max(max_seen_, h.end_seq);
  merge_interval(h.seq, h.end_seq);

  // Remember where this packet's frame ends so completion is detectable
  // even when the frame's packets arrive out of order. Retransmissions of
  // already-delivered frames must not re-register them.
  if (h.frame_end_seq > frames_delivered_upto_) {
    frame_ends_.try_emplace(h.frame_end_seq, h.frame_id, h.capture_time);
  }
  deliver_frames(now);

  Packet ack;
  ack.uid = uids_.next();
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
  ack_out_(std::move(ack));
}

}  // namespace zhuge::transport
