#pragma once
// TCP CUBIC (Ha, Rhee, Xu 2008; RFC 9438 shape). The buffer-filling
// baseline — used in the paper only as the *competitor / interferer*
// traffic (bulk transfers), not as an RTC CCA.

#include <algorithm>
#include <cmath>

#include "cca/cca.hpp"

namespace zhuge::cca {

/// Loss-based cubic-growth congestion control.
class Cubic final : public CongestionControl {
 public:
  static constexpr double kC = 0.4;     ///< cubic scaling constant
  static constexpr double kBeta = 0.7;  ///< multiplicative decrease factor
  static constexpr bool kFastConvergence = true;
  static constexpr std::uint64_t kInitialCwnd = 10 * kMss;
  static constexpr std::uint64_t kMinCwnd = 2 * kMss;

  void on_ack(const AckEvent& ev) override {
    if (ev.rtt > Duration::zero()) {
      srtt_ = srtt_ == Duration::zero() ? ev.rtt
                                        : srtt_ * 0.875 + ev.rtt * 0.125;
    }
    if (in_slow_start()) {
      cwnd_ += ev.acked_bytes;
      return;
    }
    // Concave/convex cubic growth toward (and past) w_max.
    const double t = (ev.now - epoch_start_).to_seconds();
    const double target_mss =
        kC * std::pow(t - k_, 3.0) + static_cast<double>(w_max_) / kMss;
    const double target = std::max(target_mss * kMss, static_cast<double>(kMinCwnd));
    if (target > static_cast<double>(cwnd_)) {
      // Standard CUBIC per-ACK increment: (target - cwnd)/cwnd per segment.
      const double inc = (target - static_cast<double>(cwnd_)) /
                         static_cast<double>(cwnd_) *
                         static_cast<double>(ev.acked_bytes);
      cwnd_ += static_cast<std::uint64_t>(std::max(0.0, inc));
    } else {
      cwnd_ += static_cast<std::uint64_t>(
          static_cast<double>(ev.acked_bytes) * kMss / static_cast<double>(cwnd_) / 100.0);
    }
  }

  void on_loss(TimePoint now, std::uint64_t) override {
    if (kFastConvergence && cwnd_ < w_max_) {
      w_max_ = static_cast<std::uint64_t>(static_cast<double>(cwnd_) *
                                          (1.0 + kBeta) / 2.0);
    } else {
      w_max_ = cwnd_;
    }
    cwnd_ = std::max(kMinCwnd,
                     static_cast<std::uint64_t>(static_cast<double>(cwnd_) * kBeta));
    ssthresh_ = cwnd_;
    epoch_start_ = now;
    k_ = std::cbrt(static_cast<double>(w_max_) / kMss * (1.0 - kBeta) / kC);
  }

  void on_rto(TimePoint now) override {
    on_loss(now, 0);
    cwnd_ = kMinCwnd;
  }

  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] double pacing_rate_bps() const override {
    // Pace at 1.25x cwnd/srtt to avoid self-inflicted micro-bursts.
    if (srtt_ == Duration::zero()) return 0.0;
    return 1.25 * static_cast<double>(cwnd_) * 8.0 / srtt_.to_seconds();
  }
  [[nodiscard]] std::string name() const override { return "cubic"; }

  [[nodiscard]] bool in_slow_start() const { return cwnd_ < ssthresh_; }

 private:
  std::uint64_t cwnd_ = kInitialCwnd;
  std::uint64_t ssthresh_ = UINT64_MAX;
  std::uint64_t w_max_ = 0;
  TimePoint epoch_start_;
  double k_ = 0.0;
  Duration srtt_ = Duration::zero();
};

}  // namespace zhuge::cca
