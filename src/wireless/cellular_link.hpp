#pragma once
// Cellular last-hop model: per-UE isolated queue drained by a TTI-clocked
// scheduler whose budget follows the ABW trace (the paper defers cellular
// delay estimation to ABC [31]; each flow has its own queue, no CSMA
// contention, delivery after a fixed HARQ/air latency).

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "queue/qdisc.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "wireless/channel.hpp"

namespace zhuge::wireless {

using net::Packet;
using net::PacketHandler;

/// One direction of a cellular hop.
class CellularLink {
 public:
  static constexpr Duration kTti = Duration::millis(1);         ///< scheduler granularity
  static constexpr Duration kAirLatency = Duration::millis(4);  ///< HARQ + propagation

  using DequeueObserver = std::function<void(const Packet&, TimePoint)>;
  using DeliveryObserver = std::function<void(const Packet&, TimePoint)>;

  /// `loss_prob` is the residual post-HARQ loss.
  CellularLink(sim::Simulator& simulator, sim::Rng& rng, Channel& channel,
               queue::Qdisc& qdisc, PacketHandler deliver, double loss_prob = 0.0)
      : sim_(simulator),
        rng_(rng),
        channel_(channel),
        qdisc_(qdisc),
        loss_prob_(loss_prob),
        deliver_(std::move(deliver)) {}

  /// Enqueue for the next scheduling opportunity. Returns false when the
  /// qdisc tail-dropped the packet.
  bool offer(Packet&& p) {
    p.ap_enqueue_time = sim_.now();
    const bool accepted = qdisc_.enqueue(std::move(p), sim_.now());
    if (!ticking_) {
      ticking_ = true;
      sim_.schedule_after(kTti, [this] { tick(); });
    }
    return accepted;
  }

  void set_dequeue_observer(DequeueObserver obs) { on_dequeue_ = std::move(obs); }
  void set_delivery_observer(DeliveryObserver obs) { on_delivered_ = std::move(obs); }

  [[nodiscard]] queue::Qdisc& qdisc() { return qdisc_; }
  [[nodiscard]] std::uint64_t delivered_packets() const { return delivered_; }

 private:
  void tick() {
    const TimePoint now = sim_.now();
    const double rate = std::max(0.0, channel_.rate_bps(now));
    carry_bytes_ += rate * kTti.to_seconds() / 8.0;
    ZHUGE_METRIC_INC("wireless.cellular.ttis");
    ZHUGE_METRIC_SET("wireless.cellular.rate_bps", rate);
    ZHUGE_TRACE(now, "wireless.cellular", "tti", {"rate_mbps", rate / 1e6},
                {"carry_bytes", carry_bytes_},
                {"queued_pkts", double(qdisc_.packet_count())});

    // Everything this TTI's budget admits is dequeued into one aggregate
    // and delivered by a single event after the air latency — the batched
    // analogue of the WifiLink's one-grant-per-AMPDU shape. The aggregate
    // lives in a pooled vector (several can be in flight when kAirLatency
    // spans multiple TTIs) so steady state schedules one event and zero
    // allocations per TTI instead of one packet-carrying event per MPDU.
    sim::Pool<std::vector<Packet>>::Index agg_idx = 0;
    bool have_agg = false;
    while (true) {
      const Packet* head = qdisc_.peek();
      if (head == nullptr) {
        carry_bytes_ = 0.0;  // no packet "in service": budget does not bank
        break;
      }
      if (carry_bytes_ < static_cast<double>(head->size_bytes)) break;
      auto p = qdisc_.dequeue(now);
      if (!p.has_value()) continue;  // AQM head drop
      carry_bytes_ -= static_cast<double>(p->size_bytes);
      if (on_dequeue_) on_dequeue_(*p, now);
      if (rng_.chance(loss_prob_)) {
        ZHUGE_METRIC_INC("wireless.cellular.air_losses");
        continue;
      }
      if (!have_agg) {
        agg_idx = aggregates_.put({});
        have_agg = true;
      }
      aggregates_.at(agg_idx).push_back(std::move(*p));
    }
    if (have_agg) {
      sim_.schedule_after(kAirLatency,
                          [this, agg_idx] { deliver_aggregate(agg_idx); });
    }

    if (qdisc_.packet_count() > 0) {
      sim_.schedule_after(kTti, [this] { tick(); });
    } else {
      ticking_ = false;
    }
  }

  /// Air latency elapsed for one TTI aggregate: hand every packet to the
  /// receiver in dequeue order, then recycle the vector (capacity and all)
  /// for a future TTI.
  void deliver_aggregate(sim::Pool<std::vector<Packet>>::Index agg_idx) {
    std::vector<Packet>& agg = aggregates_.at(agg_idx);
    const TimePoint now = sim_.now();
    for (Packet& pkt : agg) {
      pkt.delivered_time = now;
      ++delivered_;
      ZHUGE_METRIC_INC("wireless.cellular.delivered_packets");
      if (on_delivered_) on_delivered_(pkt, now);
      if (deliver_) deliver_(std::move(pkt));
    }
    agg.clear();
    aggregates_.release(agg_idx);
  }

  sim::Simulator& sim_;
  sim::Rng& rng_;
  Channel& channel_;
  queue::Qdisc& qdisc_;
  double loss_prob_;
  PacketHandler deliver_;
  DequeueObserver on_dequeue_;
  DeliveryObserver on_delivered_;
  sim::Pool<std::vector<Packet>> aggregates_;  ///< in-flight TTI batches
  double carry_bytes_ = 0.0;
  bool ticking_ = false;
  std::uint64_t delivered_ = 0;
};

}  // namespace zhuge::wireless
