#pragma once
// ABC sender side (Goyal et al., NSDI 2020) — the host half of the
// host-router co-design baseline the paper compares against (§7.2).
// The ABC router marks each data packet "accelerate" or "brake"; the
// receiver echoes the mark on the ACK; the sender adjusts its window by
// +1 MSS per accelerate and -1 MSS per brake, which makes the window
// track the router's target rate within roughly one RTT.

#include <algorithm>

#include "cca/cca.hpp"

namespace zhuge::cca {

/// Window control driven entirely by echoed ABC router marks.
class AbcSender final : public CongestionControl {
 public:
  static constexpr std::uint64_t kInitialCwnd = 10 * kMss;
  static constexpr std::uint64_t kMinCwnd = 2 * kMss;

  void on_ack(const AckEvent& ev) override {
    if (ev.rtt > Duration::zero()) {
      srtt_ = srtt_ <= 0.0 ? ev.rtt.to_seconds()
                           : 0.875 * srtt_ + 0.125 * ev.rtt.to_seconds();
    }
    switch (ev.abc_echo) {
      case net::AbcMark::kAccelerate:
        cwnd_ += kMss;
        break;
      case net::AbcMark::kBrake:
        cwnd_ = cwnd_ > kMinCwnd + kMss ? cwnd_ - kMss : kMinCwnd;
        break;
      case net::AbcMark::kNone:
        // Non-ABC hop on the path: fall back to gentle AIMD growth.
        cwnd_ += kMss * kMss / std::max<std::uint64_t>(cwnd_, kMss);
        break;
    }
  }

  void on_loss(TimePoint, std::uint64_t) override {
    cwnd_ = std::max(kMinCwnd, cwnd_ / 2);
  }

  void on_rto(TimePoint) override { cwnd_ = kMinCwnd; }

  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] double pacing_rate_bps() const override {
    if (srtt_ <= 0.0) return 0.0;
    return static_cast<double>(cwnd_) * 8.0 / srtt_;
  }
  [[nodiscard]] std::string name() const override { return "abc"; }

 private:
  std::uint64_t cwnd_ = kInitialCwnd;
  double srtt_ = 0.0;
};

}  // namespace zhuge::cca
