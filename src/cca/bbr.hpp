#pragma once
// BBR v1 (Cardwell et al., 2016), simplified: windowed-max bandwidth and
// windowed-min RTT filters drive a pacing-gain state machine
// (STARTUP -> DRAIN -> PROBE_BW, with periodic PROBE_RTT). One of the
// paper's "recent latency-sensitive CCAs" evaluated in Fig. 4.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

#include "cca/cca.hpp"
#include "stats/windowed.hpp"

namespace zhuge::cca {

/// Model-based congestion control: rate from max-BW, window from BDP.
class Bbr final : public CongestionControl {
 public:
  static constexpr double kStartupGain = 2.885;  ///< 2/ln(2)
  static constexpr double kDrainGain = 0.3465;   ///< 1/startup_gain
  static constexpr double kCwndGain = 2.0;
  static constexpr Duration kMinRttWindow = Duration::seconds(10);
  static constexpr Duration kProbeRttDuration = Duration::millis(200);
  static constexpr std::uint64_t kMinCwnd = 4 * kMss;
  static constexpr std::uint64_t kInitialCwnd = 10 * kMss;

  Bbr() : max_bw_(Duration::seconds(2)),  // ~10 RTTs at 200 ms
          min_rtt_(kMinRttWindow) {}

  void on_ack(const AckEvent& ev) override {
    if (ev.rtt > Duration::zero()) {
      const double r = ev.rtt.to_seconds();
      // Track when the running minimum was last refreshed: BBR enters
      // PROBE_RTT once that estimate goes stale (10 s).
      if (cached_rtt_ <= 0.0 || r <= cached_rtt_) {
        cached_rtt_ = r;
        min_rtt_stamp_ = ev.now;
      }
      min_rtt_.record(ev.now, r);
    }
    // App-limited samples measure the app's offered load, not the path:
    // admit one only when it raises the estimate (it proves at least that
    // much capacity exists). Without this filter an app that paces itself
    // off our rate (video-over-TCP tracks 0.85x pacing) locks the max
    // filter into a one-way ratchet down — after any fault knocks the
    // estimate low, probing can never climb back out.
    if (ev.delivery_rate_bps > 0.0 &&
        (!ev.app_limited || ev.delivery_rate_bps > cached_bw_)) {
      max_bw_.record(ev.now, ev.delivery_rate_bps);
    }

    const double bw = bandwidth(ev.now);
    const double rtt = min_rtt(ev.now);

    switch (state_) {
      case State::kStartup:
        // Exit when bandwidth stops growing (3 rounds < 25% growth).
        if (bw > full_bw_ * 1.25) {
          full_bw_ = bw;
          full_bw_rounds_ = 0;
        } else if (ev.now - last_round_ > Duration::from_seconds(rtt)) {
          ++full_bw_rounds_;
          last_round_ = ev.now;
          if (full_bw_rounds_ >= 3) {
            state_ = State::kDrain;
          }
        }
        pacing_gain_ = kStartupGain;
        break;
      case State::kDrain:
        pacing_gain_ = kDrainGain;
        if (ev.bytes_in_flight <= bdp_bytes(bw, rtt)) {
          state_ = State::kProbeBw;
          cycle_start_ = ev.now;
          cycle_index_ = 0;
        }
        break;
      case State::kProbeBw: {
        if (ev.now - cycle_start_ > Duration::from_seconds(rtt)) {
          cycle_start_ = ev.now;
          cycle_index_ = (cycle_index_ + 1) % kGainCycle.size();
        }
        pacing_gain_ = kGainCycle[cycle_index_];
        // Enter PROBE_RTT when the min-RTT estimate is stale.
        if (ev.now - min_rtt_stamp_ > kMinRttWindow) {
          state_ = State::kProbeRtt;
          probe_rtt_until_ = ev.now + kProbeRttDuration;
          min_rtt_stamp_ = ev.now;
        }
        break;
      }
      case State::kProbeRtt:
        pacing_gain_ = 1.0;
        if (ev.now >= probe_rtt_until_) {
          state_ = State::kProbeBw;
          cycle_start_ = ev.now;
          cycle_index_ = 0;
        }
        break;
    }

    // Debug trace, gated on ZHUGE_BBR_TRACE=1 (same idiom as the GCC
    // trace): sampled state-machine internals for diagnosing why the model
    // settled at a given operating point.
    if (trace_enabled()) {
      const double t = ev.now.count_ns() / 1e9;
      if (t - trace_last_t_ > 0.25) {
        trace_last_t_ = t;
        std::fprintf(stderr,
                     "BBR t=%.2f st=%d bw=%.3f rtt=%.1f gain=%.2f cwnd=%llu "
                     "inflight=%llu drate=%.3f applim=%d ackrtt=%.1f\n",
                     t, static_cast<int>(state_), bw / 1e6, rtt * 1e3,
                     pacing_gain_, static_cast<unsigned long long>(cwnd_),
                     static_cast<unsigned long long>(ev.bytes_in_flight),
                     ev.delivery_rate_bps / 1e6, ev.app_limited ? 1 : 0,
                     ev.rtt.to_seconds() * 1e3);
      }
    }
    const std::uint64_t bdp = bdp_bytes(bw, rtt);
    if (state_ == State::kProbeRtt) {
      cwnd_ = kMinCwnd;
    } else if (state_ == State::kStartup) {
      cwnd_ += ev.acked_bytes;  // exponential growth
    } else {
      cwnd_ = std::max<std::uint64_t>(
          kMinCwnd,
          static_cast<std::uint64_t>(kCwndGain * static_cast<double>(bdp)));
    }
  }

  void on_loss(TimePoint, std::uint64_t) override {
    // BBRv1 largely ignores isolated loss.
  }

  void on_rto(TimePoint) override {
    cwnd_ = kMinCwnd;
    state_ = State::kStartup;
    full_bw_ = 0.0;
    full_bw_rounds_ = 0;
  }

  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] double pacing_rate_bps() const override {
    return pacing_gain_ * cached_bw_;
  }
  [[nodiscard]] std::string name() const override { return "bbr"; }

 private:
  enum class State { kStartup, kDrain, kProbeBw, kProbeRtt };
  static constexpr std::array<double, 8> kGainCycle = {1.25, 0.75, 1, 1,
                                                       1,    1,    1, 1};

  static bool trace_enabled() {
    // zlint-allow(banned-api): read once, gates a stderr debug trace only;
    // never feeds simulation state.
    static const bool on = std::getenv("ZHUGE_BBR_TRACE") != nullptr;
    return on;
  }

  double bandwidth(TimePoint now) {
    const auto m = max_bw_.max(now);
    cached_bw_ = m.value_or(cached_bw_ > 0 ? cached_bw_ : 1e6);
    return cached_bw_;
  }
  double min_rtt(TimePoint now) {
    if (const auto m = min_rtt_.min(now); m.has_value() && *m > cached_rtt_) {
      // Allow the estimate to rise once old lows age out of the window.
      cached_rtt_ = *m;
    }
    return cached_rtt_ > 0 ? cached_rtt_ : 0.1;
  }
  static std::uint64_t bdp_bytes(double bw_bps, double rtt_s) {
    return static_cast<std::uint64_t>(bw_bps / 8.0 * rtt_s);
  }

  std::uint64_t cwnd_ = kInitialCwnd;
  stats::WindowedMean max_bw_;  // used via .max()
  stats::WindowedMin min_rtt_;
  double cached_bw_ = 0.0;
  double cached_rtt_ = 0.0;
  State state_ = State::kStartup;
  double pacing_gain_ = kStartupGain;
  double full_bw_ = 0.0;
  int full_bw_rounds_ = 0;
  TimePoint last_round_;
  TimePoint cycle_start_;
  std::size_t cycle_index_ = 0;
  TimePoint probe_rtt_until_;
  TimePoint min_rtt_stamp_;
  double trace_last_t_ = -1.0;  ///< debug-trace sampling clock (per instance)
};

}  // namespace zhuge::cca
