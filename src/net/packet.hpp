#pragma once
// Packet model shared by every protocol stack in the repository.
//
// A Packet is a value type: a small fixed part (flow id, wire size,
// timestamps) plus a variant holding exactly one protocol header. The
// variant mirrors what a real middlebox can parse from the wire; fields
// marked "oracle" exist only for measurement and are never read by any
// protocol logic.

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "obs/spans.hpp"
#include "sim/time.hpp"

namespace zhuge::net {

using sim::Duration;
using sim::TimePoint;

/// 5-tuple flow identity. Zhuge identifies flows by 5-tuple only (§5.2) and
/// never inspects sequence numbers of encrypted transports.
struct FlowId {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;  ///< 6 = TCP-like, 17 = UDP (RTP/RTCP/QUIC)

  /// Ordered + equality-comparable: per-flow tables are std::map keyed on
  /// FlowId so that iteration order is the 5-tuple order, never a hash
  /// function's — one of the determinism guarantees zlint enforces.
  friend auto operator<=>(const FlowId&, const FlowId&) = default;

  /// The reverse direction of this flow (feedback path).
  [[nodiscard]] FlowId reversed() const {
    return FlowId{dst_ip, src_ip, dst_port, src_port, proto};
  }
};

/// Hash for callers that key *non-result-affecting* lookup tables by flow
/// (result-affecting layers use ordered std::map — see above).
struct FlowIdHash {
  std::size_t operator()(const FlowId& f) const {
    std::uint64_t h = f.src_ip;
    h = h * 1000003u ^ f.dst_ip;
    h = h * 1000003u ^ (static_cast<std::uint64_t>(f.src_port) << 16 | f.dst_port);
    h = h * 1000003u ^ f.proto;
    return static_cast<std::size_t>(h * 0x9e3779b97f4a7c15ULL >> 16);
  }
};

/// ABC (NSDI '20) one-bit router feedback carried on data packets and
/// echoed on ACKs. `kNone` means the packet never crossed an ABC router.
enum class AbcMark : std::uint8_t { kNone, kAccelerate, kBrake };

/// TCP-like transport header. Sequence/ack numbers count bytes.
struct TcpHeader {
  std::uint64_t seq = 0;       ///< first byte carried (data packets)
  std::uint64_t end_seq = 0;   ///< one past last byte carried
  std::uint64_t ack = 0;       ///< cumulative ACK (feedback packets)
  bool is_ack = false;
  std::uint64_t ts_val = 0;    ///< echo timestamp pair (us), as TCP TS option
  std::uint64_t ts_echo = 0;
  AbcMark abc_mark = AbcMark::kNone;  ///< set by an ABC router on data
  AbcMark abc_echo = AbcMark::kNone;  ///< echoed by the receiver on ACKs
  std::uint64_t sack_upto = 0;        ///< highest byte seen (SACK-lite)

  // Application framing metadata (conceptually part of the payload; the
  // receiver's app parses it to track video-frame completion).
  std::uint32_t frame_id = 0;
  std::uint64_t frame_end_seq = 0;  ///< stream offset one past the frame
  TimePoint capture_time;           ///< frame capture/encode timestamp
};

/// RTP media packet header (RFC 3550 + TWCC extension, draft-holmer).
struct RtpHeader {
  std::uint32_t ssrc = 0;
  std::uint16_t seq = 0;        ///< RTP sequence number
  std::uint16_t twcc_seq = 0;   ///< transport-wide CC sequence number
  std::uint32_t frame_id = 0;   ///< which video frame this packet belongs to
  std::uint16_t packet_in_frame = 0;
  std::uint16_t packets_in_frame = 1;
  bool marker = false;          ///< last packet of the frame
  bool retransmission = false;  ///< NACK-triggered retransmission
  TimePoint capture_time;       ///< frame capture/encode timestamp
};

/// RTCP transport-wide congestion-control feedback (RFC 8888 shape):
/// per-packet arrival timestamps keyed by TWCC sequence number.
struct TwccFeedback {
  struct Entry {
    std::uint16_t twcc_seq = 0;
    TimePoint recv_time;  ///< receiver (or AP, under Zhuge) clock
  };
  std::uint32_t ssrc = 0;
  std::vector<Entry> entries;
  bool constructed_by_ap = false;  ///< oracle: true when Zhuge built it
};

/// RTCP NACK: receiver asks for retransmission of lost RTP seqs.
struct RtcpNack {
  std::uint32_t ssrc = 0;
  std::vector<std::uint16_t> seqs;
};

/// RTCP receiver report (loss fraction; used by GCC's loss controller).
struct RtcpReceiverReport {
  std::uint32_t ssrc = 0;
  double loss_fraction = 0.0;
  std::uint32_t highest_seq = 0;
};

/// An RTCP compound packet carrying one report type.
struct RtcpHeader {
  std::variant<TwccFeedback, RtcpNack, RtcpReceiverReport> payload;
};

/// One simulated packet. Value-semantic, but not cheap to move: it is
/// about 200 bytes, every one of which a move copies, and moving the header
/// variant dispatches on its alternative (the RTCP one owns vectors). So a
/// packet is parked once, in a queue or pool slot, and handed between hops
/// by reference.
struct Packet {
  std::uint64_t uid = 0;   ///< globally unique per simulation
  FlowId flow;
  std::uint32_t size_bytes = 0;

  std::variant<std::monostate, TcpHeader, RtpHeader, RtcpHeader> header;

  TimePoint sent_time;     ///< departure from origin host (origin clock)

  // ---- oracle fields (measurement only; never read by protocol logic) ----
  TimePoint ap_enqueue_time;   ///< arrival at the AP downlink queue
  TimePoint delivered_time;    ///< arrival at final receiver
  double predicted_delay_ms = -1.0;  ///< Fortune Teller estimate, if any
  obs::PacketSpan span;        ///< per-stage latency stamps (obs/spans.hpp)

  [[nodiscard]] bool is_tcp() const { return std::holds_alternative<TcpHeader>(header); }
  [[nodiscard]] bool is_rtp() const { return std::holds_alternative<RtpHeader>(header); }
  [[nodiscard]] bool is_rtcp() const { return std::holds_alternative<RtcpHeader>(header); }

  [[nodiscard]] TcpHeader& tcp() { return std::get<TcpHeader>(header); }
  [[nodiscard]] const TcpHeader& tcp() const { return std::get<TcpHeader>(header); }
  [[nodiscard]] RtpHeader& rtp() { return std::get<RtpHeader>(header); }
  [[nodiscard]] const RtpHeader& rtp() const { return std::get<RtpHeader>(header); }
  [[nodiscard]] RtcpHeader& rtcp() { return std::get<RtcpHeader>(header); }
  [[nodiscard]] const RtcpHeader& rtcp() const { return std::get<RtcpHeader>(header); }
};

/// Anything that consumes packets. std::function keeps wiring flexible;
/// components hand out handlers bound to member functions. The packet is
/// handed off by rvalue reference: a hop through a handler moves nothing,
/// and the consumer moves the packet only where it parks it (a queue, a
/// pool slot). Sinks are `[](Packet&& p)` lambdas; to keep a packet the
/// caller still needs, pass an explicit copy (`Packet(p)`).
using PacketHandler = std::function<void(Packet&&)>;

/// Monotonically increasing packet uid source (one per simulation).
class PacketUidSource {
 public:
  std::uint64_t next() { return ++last_; }

 private:
  std::uint64_t last_ = 0;
};

}  // namespace zhuge::net
