#pragma once
// ABC router side (Goyal et al., NSDI 2020): computes a per-flow target
// rate from the measured link capacity and queuing delay, and stamps each
// downlink data packet accelerate/brake so that the *fraction* of
// accelerates equals target_rate / current_rate. Unlike Zhuge this needs
// sender cooperation (the AbcSender CCA) — the deployability contrast the
// paper draws in §2.3.

#include <algorithm>
#include <cstdint>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "stats/windowed.hpp"

namespace zhuge::baseline {

using sim::Duration;
using sim::TimePoint;

/// Per-link ABC marking engine.
class AbcRouter {
 public:
  static constexpr Duration kDelayTarget = Duration::millis(50);  ///< delta in f = eta*mu - q/delta
  static constexpr Duration kRateWindow = Duration::millis(200);

  /// `eta` is the capacity utilisation target.
  explicit AbcRouter(double eta = 0.95)
      : eta_(eta), dequeue_rate_(kRateWindow), arrival_rate_(kRateWindow) {}

  /// Record a departure from the bottleneck queue (capacity estimate mu).
  void on_dequeue(std::int64_t bytes, TimePoint now) {
    dequeue_rate_.record(now, bytes);
  }

  /// Mark an arriving downlink data packet given the current queue state.
  /// `queue_delay` is the instantaneous queuing delay estimate
  /// (queue bytes / capacity).
  [[nodiscard]] net::AbcMark mark(std::int64_t packet_bytes, Duration queue_delay,
                                  TimePoint now) {
    arrival_rate_.record(now, packet_bytes);
    const double mu = dequeue_rate_.rate_bps(now).value_or(1e6);
    const double cr = arrival_rate_.rate_bps(now).value_or(mu);

    // ABC's control law: target rate shrinks with standing queue delay.
    const double tr = std::max(
        0.0, eta_ * mu - mu * (queue_delay.to_seconds() /
                                   (2.0 * kDelayTarget.to_seconds())));

    // Token counter marks an `tr/cr` fraction of packets accelerate.
    token_ += tr / std::max(cr, 1e3);
    if (token_ >= 1.0) {
      token_ -= 1.0;
      if (token_ > 2.0) token_ = 2.0;  // cap credit
      return net::AbcMark::kAccelerate;
    }
    return net::AbcMark::kBrake;
  }

 private:
  double eta_;
  stats::WindowedRate dequeue_rate_;
  stats::WindowedRate arrival_rate_;
  double token_ = 0.0;
};

}  // namespace zhuge::baseline
