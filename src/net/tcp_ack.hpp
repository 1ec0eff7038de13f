#pragma once
// The receiving end of a TCP-like byte stream, shared by the endpoint
// receiver (transport::TcpReceiver) and the AP's forged-ACK shadow
// (baseline::FastAck): the contiguous prefix received so far, and the pure
// ACK that reports it.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace zhuge::net {

/// IP+TCP header bytes: the wire overhead of a data segment and the whole
/// of a pure ACK.
inline constexpr std::uint32_t kTcpHeaderBytes = 40;

/// The contiguous prefix [0, prefix()) of a byte stream that arrives as
/// [start, end) intervals in any order, with any overlap or duplication.
class ContiguousPrefix {
 public:
  /// Record the bytes [start, end) as received.
  void add(std::uint64_t start, std::uint64_t end) {
    highest_ = std::max(highest_, end);
    if (end <= prefix_) return;  // duplicate
    start = std::max(start, prefix_);
    // In order and touching no held interval (every one starts above
    // prefix_): the prefix just grows, with no map node made and freed.
    if (start == prefix_ && (held_.empty() || held_.begin()->first > end)) {
      prefix_ = end;
      return;
    }

    // Insert [start, end) into the held set, merging overlaps.
    auto it = held_.lower_bound(start);
    if (it != held_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start) {
        start = prev->first;
        end = std::max(end, prev->second);
        it = held_.erase(prev);
      }
    }
    while (it != held_.end() && it->first <= end) {
      end = std::max(end, it->second);
      it = held_.erase(it);
    }
    held_.emplace(start, end);

    // Advance the prefix through the held intervals it now reaches.
    while (!held_.empty()) {
      auto first = held_.begin();
      if (first->first > prefix_) break;
      prefix_ = std::max(prefix_, first->second);
      held_.erase(first);
    }
  }

  /// One past the last byte of the contiguous prefix (TCP's rcv_nxt).
  [[nodiscard]] std::uint64_t prefix() const { return prefix_; }
  /// One past the highest byte seen (the SACK-lite high mark).
  [[nodiscard]] std::uint64_t highest() const { return highest_; }

 private:
  std::uint64_t prefix_ = 0;
  std::uint64_t highest_ = 0;
  /// Disjoint, non-touching intervals above the prefix: start -> end.
  std::map<std::uint64_t, std::uint64_t> held_;
};

/// The pure ACK answering data segment `data`: the cumulative ACK and
/// SACK-lite high mark of `rcv`, with the segment's timestamp and ABC mark
/// echoed back.
[[nodiscard]] inline Packet make_tcp_ack(const Packet& data, const ContiguousPrefix& rcv,
                                         std::uint64_t uid, sim::TimePoint now) {
  const TcpHeader& h = data.tcp();
  Packet ack;
  ack.uid = uid;
  ack.flow = data.flow.reversed();
  ack.size_bytes = kTcpHeaderBytes;
  ack.sent_time = now;
  TcpHeader ah;
  ah.is_ack = true;
  ah.ack = rcv.prefix();
  ah.sack_upto = rcv.highest();
  ah.ts_echo = h.ts_val;
  ah.abc_echo = h.abc_mark;
  ack.header = ah;
  return ack;
}

}  // namespace zhuge::net
