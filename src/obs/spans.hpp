#pragma once
// Per-stage latency spans for packets and video frames.
//
// A PacketSpan rides inside net::Packet as an oracle field: components
// stamp nanosecond timestamps at the stage boundaries they own (sender
// pacing origin, AP qdisc egress, first transmission attempt) and the
// harness turns the stamps into per-stage delay distributions at delivery
// time (obs/attrib.hpp). Frame-level stages (reassembly wait, in-order
// decode wait) are carried by FrameSpan, built by the RTP receiver when a
// frame leaves the jitter buffer.
//
// Stamping follows the same discipline as every other obs hook: a
// process-global runtime switch (`attrib_enabled`) that costs one cold
// branch per stamp when off, forced off by app::ObsFreeze during parallel
// sweeps unless the sweep explicitly re-enables it, and compiled out
// entirely with -DZHUGE_OBS_ENABLED=0. Span fields are *never* read by
// protocol logic, so enabling attribution cannot change simulated
// behaviour — the determinism suite pins result fingerprints on vs off.

#include <cstdint>

#include "obs/metrics.hpp"  // ZHUGE_OBS_ENABLED
#include "sim/time.hpp"

namespace zhuge::obs {

/// The stages a delivered packet / decoded frame is attributed across.
/// Packet stages partition the downlink one-way delay; frame stages cover
/// the receiver-side path from first arrival to decode release.
enum class Stage : std::uint8_t {
  kPacing = 0,   ///< packetised at the sender -> wire departure (pacer)
  kWan,          ///< server NIC -> AP qdisc ingress (wired WAN)
  kApQueue,      ///< AP qdisc ingress -> dequeue into an AMPDU
  kAir,          ///< AMPDU dequeue -> 802.11 delivery, retries included
  kE2e,          ///< packetised at the sender -> receiver arrival
  kReassembly,   ///< frame: first packet arrival -> frame complete
  kDecodeWait,   ///< frame: complete -> in-order decode release
  kFrameE2e,     ///< frame: capture -> decode
};

inline constexpr std::size_t kStageCount = 8;

/// True for the three frame-level stages.
[[nodiscard]] constexpr bool stage_is_frame(Stage s) {
  return s == Stage::kReassembly || s == Stage::kDecodeWait ||
         s == Stage::kFrameE2e;
}

[[nodiscard]] constexpr const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kPacing: return "pacing";
    case Stage::kWan: return "wan";
    case Stage::kApQueue: return "ap_queue";
    case Stage::kAir: return "air";
    case Stage::kE2e: return "e2e";
    case Stage::kReassembly: return "reassembly";
    case Stage::kDecodeWait: return "decode_wait";
    case Stage::kFrameE2e: return "frame_e2e";
  }
  return "?";
}

/// Per-packet stage stamps, embedded in net::Packet as an oracle field.
/// -1 = never stamped (stage skipped at aggregation time). The remaining
/// boundaries reuse the Packet's existing oracle timestamps (sent_time,
/// ap_enqueue_time, delivered_time), so the span only carries what no
/// existing field records.
struct PacketSpan {
  std::int64_t paced_ns = -1;       ///< handed to the sender's pacer
  std::int64_t ap_dequeue_ns = -1;  ///< left the AP qdisc into an AMPDU
  std::int64_t first_air_ns = -1;   ///< first transmission attempt started
  std::uint32_t air_retries = 0;    ///< link-layer retries before delivery
};

/// Frame-level span, assembled by the RTP receiver (or synthesised for
/// TCP-framed video) and handed to rtc::FrameStats' span observer.
struct FrameSpan {
  std::uint32_t flow_key = 0;        ///< ssrc / schedule-index + 1
  std::uint32_t frame_id = 0;
  std::int64_t capture_ns = 0;       ///< encode timestamp at the sender
  std::int64_t first_arrival_ns = -1;
  std::int64_t complete_ns = -1;     ///< last packet of the frame arrived
  std::int64_t decode_ns = -1;       ///< released in-order to the decoder
  std::uint32_t packets = 0;
};

// ---- global runtime switch ------------------------------------------------

/// Runtime switch read by every span stamp; off by default and frozen off
/// by app::ObsFreeze alongside the other obs switches.
// zlint-allow(shared-mutable-state): reviewed process-global obs switch; set once at startup, frozen by app::ObsFreeze around every pooled run, never result-affecting
inline bool g_attrib_enabled = false;

[[nodiscard]] inline bool attrib_enabled() { return g_attrib_enabled; }
inline void set_attrib_enabled(bool on) { g_attrib_enabled = on; }

}  // namespace zhuge::obs

// ZHUGE_SPAN_STAMP(lvalue_ns, now): stamp a span field with `now` when
// attribution is enabled; one cold-bool branch otherwise, nothing at all
// under -DZHUGE_OBS_ENABLED=0.
#if ZHUGE_OBS_ENABLED
#define ZHUGE_SPAN_STAMP(lvalue_ns, now)                                  \
  do {                                                                    \
    if (::zhuge::obs::attrib_enabled()) (lvalue_ns) = (now).count_ns();   \
  } while (0)
#else
#define ZHUGE_SPAN_STAMP(lvalue_ns, now) do {} while (0)
#endif
