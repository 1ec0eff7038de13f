#pragma once
// Copa (Arun & Balakrishnan, NSDI 2018) — the delay-sensitive TCP CCA the
// paper pairs Zhuge with (§7.2). Copa targets a sending rate of
// 1 / (delta * dq) packets/s where dq = RTTstanding - RTTmin, and adjusts
// cwnd toward that target with a velocity parameter that doubles while the
// direction of change is consistent. Because Copa reacts to *per-packet
// delay patterns* at sub-RTT granularity, it is the stress test for
// Zhuge's distributional delta delivery (§5.2).

#include <algorithm>
#include <cmath>
#include <deque>

#include "cca/cca.hpp"
#include "stats/windowed.hpp"

namespace zhuge::cca {

/// Delay-based congestion control (default mode, delta = 0.5).
class Copa final : public CongestionControl {
 public:
  static constexpr double kDelta = 0.5;  ///< target aggressiveness
  static constexpr std::uint64_t kInitialCwnd = 10 * kMss;
  static constexpr std::uint64_t kMinCwnd = 2 * kMss;
  static constexpr Duration kMinRttWindow = Duration::seconds(10);

  Copa() : min_rtt_filter_(kMinRttWindow) {}

  void on_ack(const AckEvent& ev) override {
    if (ev.rtt <= Duration::zero()) return;
    const double rtt_s = ev.rtt.to_seconds();
    min_rtt_filter_.record(ev.now, rtt_s);
    srtt_ = srtt_ <= 0.0 ? rtt_s : 0.875 * srtt_ + 0.125 * rtt_s;

    // RTTstanding: min RTT over the last srtt/2.
    recent_rtts_.push_back({ev.now, rtt_s});
    const TimePoint cutoff = ev.now - Duration::from_seconds(std::max(srtt_ / 2.0, 0.005));
    while (!recent_rtts_.empty() && recent_rtts_.front().t < cutoff) {
      recent_rtts_.pop_front();
    }
    double standing = rtt_s;
    for (const auto& s : recent_rtts_) standing = std::min(standing, s.rtt);

    const double min_rtt = min_rtt_filter_.min(ev.now).value_or(rtt_s);
    const double dq = std::max(standing - min_rtt, 0.0);

    const double cwnd_pkts = static_cast<double>(cwnd_) / kMss;
    const double current_rate = cwnd_pkts / std::max(standing, 1e-6);  // pkts/s
    // Target rate; with an empty queue (dq ~ 0) the target is unbounded
    // and Copa increases.
    const double target_rate = dq < 1e-6
                                   ? std::numeric_limits<double>::infinity()
                                   : 1.0 / (kDelta * dq);

    update_velocity(ev.now, current_rate < target_rate);

    const double step = static_cast<double>(velocity_) /
                        (kDelta * cwnd_pkts) *
                        (static_cast<double>(ev.acked_bytes) / kMss) * kMss;
    if (current_rate < target_rate) {
      cwnd_ += static_cast<std::uint64_t>(step);
    } else {
      cwnd_ = cwnd_ > static_cast<std::uint64_t>(step) + kMinCwnd
                  ? cwnd_ - static_cast<std::uint64_t>(step)
                  : kMinCwnd;
    }
    last_rtt_ = ev.rtt;
  }

  void on_loss(TimePoint, std::uint64_t) override {
    // Copa's default mode does not react to isolated losses.
  }

  void on_rto(TimePoint) override {
    cwnd_ = std::max(kMinCwnd, cwnd_ / 2);
    velocity_ = 1;
  }

  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] double pacing_rate_bps() const override {
    // Copa paces at 2*cwnd/RTTstanding; approximate with srtt.
    if (srtt_ <= 0.0) return 0.0;
    return 2.0 * static_cast<double>(cwnd_) * 8.0 / srtt_;
  }
  [[nodiscard]] std::string name() const override { return "copa"; }

  [[nodiscard]] double velocity() const { return static_cast<double>(velocity_); }

 private:
  /// Velocity doubles once per RTT while the direction persists for at
  /// least three consecutive RTTs; any flip resets it to 1.
  void update_velocity(TimePoint now, bool up) {
    if (direction_rtts_ == 0) {
      direction_up_ = up;
      direction_rtts_ = 1;
      last_velocity_update_ = now;
      return;
    }
    if (up != direction_up_) {
      direction_up_ = up;
      direction_rtts_ = 1;
      velocity_ = 1;
      last_velocity_update_ = now;
      return;
    }
    if ((now - last_velocity_update_).to_seconds() >= srtt_ && srtt_ > 0.0) {
      ++direction_rtts_;
      if (direction_rtts_ >= 3) velocity_ = std::min<std::uint64_t>(velocity_ * 2, 1u << 16);
      last_velocity_update_ = now;
    }
  }

  std::uint64_t cwnd_ = kInitialCwnd;
  stats::WindowedMin min_rtt_filter_;
  struct RttSample {
    TimePoint t;
    double rtt;
  };
  std::deque<RttSample> recent_rtts_;
  double srtt_ = 0.0;
  Duration last_rtt_ = Duration::zero();
  std::uint64_t velocity_ = 1;
  bool direction_up_ = true;
  int direction_rtts_ = 0;
  TimePoint last_velocity_update_;
};

}  // namespace zhuge::cca
