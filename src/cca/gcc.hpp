#pragma once
// Google Congestion Control (Carlucci et al. 2017; WebRTC's default) —
// the CCA the paper pairs with RTP/RTCP. Feedback-vector driven: the
// sender receives TWCC reports carrying per-packet receive times, computes
// inter-group delay gradients, fits a trendline, detects over/underuse
// against an adaptive threshold, and drives an AIMD rate controller.
// A parallel loss-based controller caps the delay-based rate.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sim/time.hpp"
#include "stats/windowed.hpp"

namespace zhuge::cca {

using sim::Duration;
using sim::TimePoint;

/// One (send, receive) observation reconstructed from TWCC feedback.
struct TwccObservation {
  std::uint16_t twcc_seq = 0;
  TimePoint send_time;
  TimePoint recv_time;
  std::uint32_t size_bytes = 0;
};

/// Delay-based + loss-based rate controller.
class Gcc {
 public:
  struct Config {
    double start_rate_bps = 1e6;
    double min_rate_bps = 150e3;
    double max_rate_bps = 20e6;
  };

  // Packet grouping (WebRTC InterArrival): packets sent within this span
  // form one group; gradients are computed between groups, which filters
  // AMPDU / burst-level jitter out of the delay signal.
  static constexpr Duration kBurstSpan = Duration::millis(5);
  // Trendline estimator.
  static constexpr std::size_t kTrendlineWindow = 40;
  static constexpr double kSmoothing = 0.9;
  static constexpr double kGain = 4.0;              ///< threshold comparison gain (k_u-ish)
  static constexpr double kInitialThreshold = 12.5;  ///< ms, adapts online
  static constexpr double kKUp = 0.0087;
  static constexpr double kKDown = 0.039;
  static constexpr double kMaxAdaptOffsetMs = 15.0;  ///< freeze adaptation beyond this
  // Rate controller.
  static constexpr double kIncreaseFactor = 1.08;  ///< multiplicative increase per period
  static constexpr double kAdditiveIncreaseBps = 40e3;  ///< near-convergence probing step
  static constexpr double kDecreaseFactor = 0.85;  ///< beta applied to the receive rate
  static constexpr Duration kResponseInterval = Duration::millis(100);
  // Loss controller.
  static constexpr double kLossIncreaseThreshold = 0.02;
  static constexpr double kLossDecreaseThreshold = 0.10;
  static constexpr Duration kLossUpdateInterval = Duration::millis(800);
  static constexpr double kLossAdditiveRecoveryBps = 250e3;  ///< per update, see .cpp

  Gcc() : Gcc(Config{}) {}
  explicit Gcc(Config cfg) : cfg_(cfg), delay_based_rate_(cfg.start_rate_bps),
                                  loss_based_rate_(cfg.start_rate_bps) {}

  /// Feed one TWCC feedback report (observations sorted by send order).
  /// `now` is the sender clock at feedback arrival.
  void on_feedback(const std::vector<TwccObservation>& observations, TimePoint now);

  /// Feed a loss-rate measurement (fraction in [0,1]) for the last window.
  void on_loss_report(double loss_fraction, TimePoint now);

  /// Current target bitrate for the encoder.
  [[nodiscard]] double target_rate_bps() const;

  /// Introspection for tests and the Fig. 4 CWND-convergence bench.
  enum class Hypothesis : std::uint8_t { kNormal, kOveruse, kUnderuse };
  enum class RateState : std::uint8_t { kIncrease, kHold, kDecrease };
  [[nodiscard]] Hypothesis hypothesis() const { return hypothesis_; }
  [[nodiscard]] double trendline_slope() const { return last_slope_; }
  [[nodiscard]] double receive_rate_bps() const { return receive_rate_bps_; }

 private:
  void trace(TimePoint now) const;  ///< ZHUGE_GCC_TRACE=1 debug stream
  void update_trendline(TimePoint now);
  void detect(double modified_trend, Duration group_span, TimePoint now);
  void update_rate(TimePoint now);
  void update_receive_rate(const std::vector<TwccObservation>& obs);

  Config cfg_;
  double delay_based_rate_;
  double loss_based_rate_;
  double receive_rate_bps_ = 0.0;
  stats::WindowedRate recv_rate_window_{Duration::millis(500)};

  // Packet-group assembly (kBurstSpan grouping).
  struct Group {
    TimePoint first_send;
    TimePoint last_send;
    TimePoint last_recv;
    bool valid = false;
  };
  Group current_group_;
  Group prev_group_;

  // Inter-group delay accumulation.
  double accumulated_delay_ms_ = 0.0;
  double smoothed_delay_ms_ = 0.0;
  struct TrendPoint {
    double arrival_ms;   // relative arrival time
    double smoothed_ms;  // smoothed accumulated delay
  };
  std::deque<TrendPoint> trend_points_;
  double first_arrival_ms_ = -1.0;
  double last_slope_ = 0.0;

  // Overuse detector.
  double threshold_ms_ = kInitialThreshold;
  Hypothesis hypothesis_ = Hypothesis::kNormal;
  TimePoint overuse_start_;
  int overuse_count_ = 0;
  TimePoint last_detector_update_;

  // AIMD state.
  RateState rate_state_ = RateState::kIncrease;
  TimePoint last_rate_update_;
  TimePoint last_loss_update_;
  double pending_loss_ = 0.0;
  double avg_max_bps_ = -1.0;  ///< link estimate from overuse decreases
  bool loss_cap_active_ = false;  ///< loss-based cap engaged by a loss episode
};

}  // namespace zhuge::cca
