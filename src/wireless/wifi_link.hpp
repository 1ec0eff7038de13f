#pragma once
// WiFi link-layer model: AMPDU aggregation over a shared medium.
//
// Packets sit in the *network-layer* qdisc until the medium is granted;
// then up to an aggregation limit of them are dequeued simultaneously into
// one AMPDU (the paper's "bursty packet departures", §3.1). The Fortune
// Teller's inputs come from hooks here: per-packet qdisc-dequeue events
// (txRate / dequeue intervals / burst sizes) and the qdisc's own
// head-of-queue state.

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "queue/qdisc.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "wireless/channel.hpp"
#include "wireless/medium.hpp"

namespace zhuge::wireless {

using net::Packet;
using net::PacketHandler;

/// One direction of a WiFi hop (AP→client or client→AP).
class WifiLink {
 public:
  struct Config {
    std::size_t max_agg_packets = 32;           ///< MPDUs per AMPDU
    std::int64_t max_agg_bytes = 48 * 1024;     ///< AMPDU byte cap
    Duration per_frame_overhead = Duration::micros(250);  ///< preamble+SIFS+BA
    Duration max_frame_airtime = Duration::millis(4);     ///< TXOP-like cap
    double mpdu_loss_prob = 0.005;              ///< per-MPDU corruption prob
    int max_retries = 7;
  };

  /// Observer of packets leaving the network-layer qdisc (possibly several
  /// at the same instant — one call per packet).
  using DequeueObserver = std::function<void(const Packet&, TimePoint)>;
  /// Observer of packets confirmed delivered over the air (the 802.11 ACK
  /// event FastAck builds on).
  using DeliveryObserver = std::function<void(const Packet&, TimePoint)>;

  WifiLink(sim::Simulator& simulator, sim::Rng& rng, Channel& channel,
           Medium& medium, queue::Qdisc& qdisc, Config cfg, PacketHandler deliver)
      : sim_(simulator),
        rng_(rng),
        channel_(channel),
        medium_(medium),
        qdisc_(qdisc),
        cfg_(cfg),
        deliver_(std::move(deliver)) {}

  /// Enqueue a packet for wireless transmission. Returns false when the
  /// qdisc tail-dropped it.
  bool offer(Packet&& p) {
    p.ap_enqueue_time = sim_.now();
    const bool accepted = qdisc_.enqueue(std::move(p), sim_.now());
    kick();
    return accepted;
  }

  /// Arm a transmission attempt if idle and traffic is pending.
  void kick() {
    if (requesting_) return;
    if (retry_.empty() && qdisc_.packet_count() == 0) return;
    requesting_ = true;
    medium_.transmit([this] { return build_and_start_frame(); },
                     [this] { complete_frame(); });
  }

  void set_dequeue_observer(DequeueObserver obs) { on_dequeue_ = std::move(obs); }
  void set_delivery_observer(DeliveryObserver obs) { on_delivered_ = std::move(obs); }

  [[nodiscard]] queue::Qdisc& qdisc() { return qdisc_; }
  [[nodiscard]] const queue::Qdisc& qdisc() const { return qdisc_; }
  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_; }
  [[nodiscard]] std::uint64_t retry_drops() const { return retry_drops_; }
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_; }

  /// Total medium airtime this link's frames have occupied (per-frame
  /// overhead included). Per-station airtime accounting for multi-station
  /// scenarios: summed across links it shows how the CSMA medium was split.
  [[nodiscard]] Duration airtime_used() const { return airtime_used_; }

 private:
  struct Mpdu {
    Packet packet;
    int retries = 0;
  };

  /// Medium grant: assemble the AMPDU *now* (this is the simultaneous
  /// departure event), return its airtime.
  Duration build_and_start_frame() {
    const TimePoint now = sim_.now();
    const double rate = std::max(1e3, channel_.rate_bps(now));
    // Byte budget implied by the airtime cap at the current rate.
    const auto airtime_budget_bytes = static_cast<std::int64_t>(
        cfg_.max_frame_airtime.to_seconds() * rate / 8.0);

    frame_.clear();
    std::int64_t bytes = 0;
    // Link-layer retries go first (block-ACK retransmission).
    while (!retry_.empty() && frame_.size() < cfg_.max_agg_packets &&
           bytes + retry_.front().packet.size_bytes <= cfg_.max_agg_bytes) {
      bytes += retry_.front().packet.size_bytes;
      frame_.push_back(std::move(retry_.front()));
      retry_.pop_front();
    }
    while (frame_.size() < cfg_.max_agg_packets) {
      const Packet* head = qdisc_.peek();
      if (head == nullptr) break;
      const std::int64_t sz = head->size_bytes;
      if (!frame_.empty() &&
          (bytes + sz > cfg_.max_agg_bytes || bytes + sz > airtime_budget_bytes)) {
        break;
      }
      auto p = qdisc_.dequeue(now);
      if (!p.has_value()) break;  // AQM head-dropped everything pending
      if (on_dequeue_) on_dequeue_(*p, now);
      bytes += p->size_bytes;
      frame_.emplace_back(std::move(*p), 0);
    }

    // First transmission attempt for every MPDU not already stamped (fresh
    // dequeues; retries keep their original first-air stamp).
    for (auto& mpdu : frame_) {
      if (mpdu.packet.span.first_air_ns < 0) {
        ZHUGE_SPAN_STAMP(mpdu.packet.span.first_air_ns, now);
      }
    }

    ++frames_;
    if (frame_.empty()) {
      // Everything was AQM-dropped between kick and grant: occupy nothing.
      return Duration::zero();
    }
    const Duration airtime =
        cfg_.per_frame_overhead +
        Duration::from_seconds(static_cast<double>(bytes) * 8.0 / rate);
    airtime_used_ = airtime_used_ + airtime;
    ZHUGE_METRIC_INC("wireless.wifi.frames");
    ZHUGE_METRIC_SET("wireless.wifi.rate_bps", rate);
    ZHUGE_METRIC_OBSERVE("wireless.wifi.ampdu_packets",
                         static_cast<double>(frame_.size()));
    ZHUGE_TRACE(now, "wireless.wifi", "tx_start",
                {"mpdus", double(frame_.size())}, {"bytes", double(bytes)},
                {"rate_mbps", rate / 1e6}, {"airtime_us", airtime.to_micros()});
    return airtime;
  }

  /// Airtime elapsed: resolve per-MPDU success, deliver or re-queue.
  void complete_frame() {
    const TimePoint now = sim_.now();
    std::size_t ok = 0, retried = 0, dropped = 0;
    for (auto& mpdu : frame_) {
      if (rng_.chance(cfg_.mpdu_loss_prob)) {
        if (mpdu.retries + 1 > cfg_.max_retries) {
          ++retry_drops_;
          ++dropped;
          ZHUGE_METRIC_INC("wireless.wifi.retry_drops");
          continue;
        }
        ++mpdu.retries;
        ++retried;
        ZHUGE_METRIC_INC("wireless.wifi.retries");
        retry_.push_back(std::move(mpdu));
        continue;
      }
      mpdu.packet.delivered_time = now;
      mpdu.packet.span.air_retries = static_cast<std::uint32_t>(mpdu.retries);
      ++delivered_;
      ++ok;
      ZHUGE_METRIC_INC("wireless.wifi.delivered_packets");
      if (on_delivered_) on_delivered_(mpdu.packet, now);
      if (deliver_) deliver_(std::move(mpdu.packet));
    }
    ZHUGE_TRACE(now, "wireless.wifi", "tx_end", {"delivered", double(ok)},
                {"retried", double(retried)}, {"retry_dropped", double(dropped)});
    frame_.clear();
    requesting_ = false;
    kick();
  }

  sim::Simulator& sim_;
  sim::Rng& rng_;
  Channel& channel_;
  Medium& medium_;
  queue::Qdisc& qdisc_;
  Config cfg_;
  PacketHandler deliver_;
  DequeueObserver on_dequeue_;
  DeliveryObserver on_delivered_;

  std::vector<Mpdu> frame_;
  sim::Ring<Mpdu> retry_;
  bool requesting_ = false;
  std::uint64_t delivered_ = 0;
  std::uint64_t retry_drops_ = 0;
  Duration airtime_used_ = Duration::zero();
  std::uint64_t frames_ = 0;
};

}  // namespace zhuge::wireless
