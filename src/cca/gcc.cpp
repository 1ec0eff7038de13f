#include "cca/gcc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace zhuge::cca {

namespace {
// Debug aid: set ZHUGE_GCC_TRACE=1 to stream controller state to stderr.
bool trace_enabled() {
  // zlint-allow(banned-api): read once, gates a stderr debug trace only;
  // controller decisions and results never depend on it.
  static const bool on = std::getenv("ZHUGE_GCC_TRACE") != nullptr;
  return on;
}
}  // namespace

void Gcc::update_receive_rate(const std::vector<TwccObservation>& obs) {
  // Windowed estimator (WebRTC uses a ~500 ms bitrate window): measuring
  // over one feedback's receive span would be wildly inflated by AMPDU
  // burst delivery (a whole aggregate lands within a few ms).
  if (obs.empty()) return;
  TimePoint newest = obs.front().recv_time;
  for (const auto& o : obs) {
    recv_rate_window_.record(o.recv_time, o.size_bytes);
    newest = std::max(newest, o.recv_time);
  }
  if (const auto r = recv_rate_window_.rate_bps(newest); r.has_value()) {
    receive_rate_bps_ = *r;
  }
}

void Gcc::on_feedback(const std::vector<TwccObservation>& observations, TimePoint now) {
  update_receive_rate(observations);
  Duration group_span = Duration::zero();
  for (const auto& o : observations) {
    // WebRTC InterArrival grouping: packets sent within kBurstSpan of the
    // group's first send belong to the same group; the group's timestamps
    // are its last send/recv.
    if (!current_group_.valid) {
      current_group_ = {o.send_time, o.send_time, o.recv_time, true};
      continue;
    }
    if (o.send_time - current_group_.first_send <= kBurstSpan) {
      current_group_.last_send = std::max(current_group_.last_send, o.send_time);
      current_group_.last_recv = std::max(current_group_.last_recv, o.recv_time);
      continue;
    }
    // Group boundary: compute the inter-group gradient.
    if (prev_group_.valid) {
      const double d_send =
          (current_group_.last_send - prev_group_.last_send).to_millis();
      const double d_recv =
          (current_group_.last_recv - prev_group_.last_recv).to_millis();
      const double gradient = d_recv - d_send;
      accumulated_delay_ms_ += gradient;
      smoothed_delay_ms_ = kSmoothing * smoothed_delay_ms_ +
                           (1.0 - kSmoothing) * accumulated_delay_ms_;
      const double arrival_ms = current_group_.last_recv.to_millis();
      if (first_arrival_ms_ < 0.0) first_arrival_ms_ = arrival_ms;
      trend_points_.push_back({arrival_ms - first_arrival_ms_, smoothed_delay_ms_});
      while (trend_points_.size() > kTrendlineWindow) trend_points_.pop_front();
      group_span = Duration::from_millis(std::max(1.0, d_send));
    }
    prev_group_ = current_group_;
    current_group_ = {o.send_time, o.send_time, o.recv_time, true};
  }
  if (trend_points_.size() >= kTrendlineWindow / 2) {
    update_trendline(now);
    detect(last_slope_, group_span, now);
  }
  update_rate(now);
  trace(now);
}

void Gcc::update_trendline(TimePoint) {
  // Least-squares slope of smoothed accumulated delay vs arrival time.
  const std::size_t n = trend_points_.size();
  double sx = 0, sy = 0;
  for (const auto& p : trend_points_) {
    sx += p.arrival_ms;
    sy += p.smoothed_ms;
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double num = 0, den = 0;
  for (const auto& p : trend_points_) {
    num += (p.arrival_ms - mx) * (p.smoothed_ms - my);
    den += (p.arrival_ms - mx) * (p.arrival_ms - mx);
  }
  last_slope_ = den > 1e-9 ? num / den : 0.0;
}

void Gcc::detect(double trend, Duration, TimePoint now) {
  // Scale the slope into the threshold's domain, as WebRTC does:
  // modified_trend = slope * gain * sample_window.
  const double samples = static_cast<double>(
      std::min<std::size_t>(trend_points_.size(), kTrendlineWindow));
  const double modified = trend * kGain * samples;

  if (modified > threshold_ms_) {
    // Require persistence (>= 10 ms and 2 consecutive samples) before
    // declaring overuse. The candidate counter must survive while the
    // hypothesis is still Normal — resetting it on "not yet overusing"
    // would make the two-sample gate unsatisfiable.
    if (overuse_count_ == 0) overuse_start_ = now;
    ++overuse_count_;
    if (overuse_count_ >= 2 && now - overuse_start_ >= Duration::millis(10)) {
      hypothesis_ = Hypothesis::kOveruse;
    }
  } else if (modified < -threshold_ms_) {
    overuse_count_ = 0;
    hypothesis_ = Hypothesis::kUnderuse;
  } else {
    overuse_count_ = 0;
    hypothesis_ = Hypothesis::kNormal;
  }

  // Adaptive threshold (avoids starvation against loss-based flows).
  // WebRTC's guard: when the trend overshoots the threshold by more than
  // 15 ms the signal is a genuine overuse, not ambient noise — freezing
  // adaptation there keeps the threshold from racing ahead of the very
  // congestion it is supposed to detect.
  // dt capped at 25 ms: WebRTC adapts once per packet group (5-25 ms
  // apart); we run the detector once per feedback (~100 ms), and letting
  // a single update close 0.87 of the gap would track any rising trend
  // before the overuse hypothesis can fire.
  const double dt_ms = last_detector_update_ == TimePoint{}
                           ? 10.0
                           : std::min(25.0, (now - last_detector_update_).to_millis());
  last_detector_update_ = now;
  if (std::abs(modified) > threshold_ms_ + kMaxAdaptOffsetMs) return;
  const double k = std::abs(modified) < threshold_ms_ ? kKDown : kKUp;
  threshold_ms_ += k * (std::abs(modified) - threshold_ms_) * dt_ms;
  threshold_ms_ = std::clamp(threshold_ms_, 6.0, 600.0);
}

void Gcc::update_rate(TimePoint now) {
  switch (hypothesis_) {
    case Hypothesis::kOveruse:
      rate_state_ = RateState::kDecrease;
      break;
    case Hypothesis::kUnderuse:
      // Queues are draining; hold until normal to avoid premature growth.
      rate_state_ = RateState::kHold;
      break;
    case Hypothesis::kNormal:
      if (rate_state_ == RateState::kDecrease) rate_state_ = RateState::kHold;
      else rate_state_ = RateState::kIncrease;
      break;
  }

  if (rate_state_ == RateState::kDecrease) {
    const double base = receive_rate_bps_ > 0.0 ? receive_rate_bps_ : delay_based_rate_;
    // Track the link estimate; when the operating point moved far from the
    // previous estimate (capacity changed abruptly), reset rather than
    // average — WebRTC's 3-sigma rule serves the same purpose.
    if (avg_max_bps_ <= 0.0 || base < 0.5 * avg_max_bps_ || base > 1.5 * avg_max_bps_) {
      avg_max_bps_ = base;
    } else {
      avg_max_bps_ = 0.8 * avg_max_bps_ + 0.2 * base;
    }
    delay_based_rate_ = std::max(cfg_.min_rate_bps, kDecreaseFactor * base);
    last_rate_update_ = now;
    // One decrease per overuse signal; wait for the next detector verdict.
    hypothesis_ = Hypothesis::kNormal;
    return;
  }
  if (rate_state_ == RateState::kIncrease &&
      (last_rate_update_ == TimePoint{} ||
       now - last_rate_update_ >= kResponseInterval)) {
    // WebRTC regime switching: multiplicative until the first overuse pins
    // down a link estimate (avg_max), additive probing near that estimate
    // afterwards — refilling a standing queue multiplicatively would
    // defeat convergence after an overshoot.
    if (avg_max_bps_ > 0.0 && receive_rate_bps_ > 1.5 * avg_max_bps_) {
      avg_max_bps_ = -1.0;  // the link got much better; re-probe
    }
    if (avg_max_bps_ > 0.0 && delay_based_rate_ > 0.95 * avg_max_bps_) {
      delay_based_rate_ += kAdditiveIncreaseBps;
    } else {
      delay_based_rate_ *= kIncreaseFactor;
    }
    delay_based_rate_ = std::min(delay_based_rate_, cfg_.max_rate_bps);
    // Never run far ahead of what the path demonstrably delivers.
    if (receive_rate_bps_ > 0.0) {
      delay_based_rate_ = std::min(delay_based_rate_, 1.5 * receive_rate_bps_ + 10e3);
    }
    last_rate_update_ = now;
  }
}

void Gcc::on_loss_report(double loss_fraction, TimePoint now) {
  // Loss-based updates are rate-limited (WebRTC evaluates roughly once per
  // second): applying the 5 % increase on every 25 ms TWCC report would
  // re-inflate the rate ~7x per second and never let a queue drain.
  if (last_loss_update_ != TimePoint{} &&
      now - last_loss_update_ < kLossUpdateInterval) {
    pending_loss_ = std::max(pending_loss_, loss_fraction);
    return;
  }
  loss_fraction = std::max(loss_fraction, pending_loss_);
  pending_loss_ = 0.0;
  last_loss_update_ = now;
  if (loss_fraction > kLossDecreaseThreshold) {
    // The cut anchors at the current operating point: a stale cap value
    // (from an earlier loss episode at a higher link rate) must not make
    // the controller spend seconds cutting through rates it is no longer
    // operating anywhere near.
    const double operating = std::max(delay_based_rate_, receive_rate_bps_);
    if (!loss_cap_active_ || loss_based_rate_ > operating) {
      loss_based_rate_ = operating;
    }
    loss_cap_active_ = true;
    loss_based_rate_ = std::max(cfg_.min_rate_bps,
                                loss_based_rate_ * (1.0 - 0.5 * loss_fraction));
    // A loss episode is also a link-capacity observation: without it the
    // delay-based side (blind to a standing queue's zero slope) would keep
    // probing multiplicatively right back over the cliff.
    if (receive_rate_bps_ > 0.0) {
      if (avg_max_bps_ <= 0.0 || receive_rate_bps_ < 0.5 * avg_max_bps_ ||
          receive_rate_bps_ > 1.5 * avg_max_bps_) {
        avg_max_bps_ = receive_rate_bps_;
      } else {
        avg_max_bps_ = 0.8 * avg_max_bps_ + 0.2 * receive_rate_bps_;
      }
    }
  } else if (loss_fraction < kLossIncreaseThreshold && loss_cap_active_) {
    // Recovery slope: min(multiplicative, additive).
    //  * At low rates (deep cut after a fade) the 5 %/update multiplicative
    //    term is smaller — a cautious ramp that lets the bloated queue
    //    drain before the rate climbs back to capacity.
    //  * At high rates the additive term is smaller — and additive
    //    increase paired with multiplicative decrease (AIMD) is what makes
    //    the shares of competing flows converge instead of freezing at
    //    whatever ratio they started with (MIMD never converges).
    loss_based_rate_ = std::min(
        cfg_.max_rate_bps,
        std::min(loss_based_rate_ * 1.05,
                 loss_based_rate_ + kLossAdditiveRecoveryBps));
    // Once the cap has recovered past the delay-based estimate it no
    // longer carries information; release it.
    if (loss_based_rate_ >= delay_based_rate_) loss_cap_active_ = false;
  }
}

void Gcc::trace(TimePoint now) const {
  if (!trace_enabled()) return;
  std::fprintf(stderr,
               "gcc %p t=%.2f delay=%.2f loss=%.2f recv=%.2f capON=%d hyp=%d "
               "state=%d slope=%.3f thr=%.1f avgmax=%.2f\n",
               static_cast<const void*>(this),
               now.to_seconds(), delay_based_rate_ / 1e6, loss_based_rate_ / 1e6,
               receive_rate_bps_ / 1e6, loss_cap_active_ ? 1 : 0,
               static_cast<int>(hypothesis_), static_cast<int>(rate_state_),
               last_slope_, threshold_ms_, avg_max_bps_ / 1e6);
}

double Gcc::target_rate_bps() const {
  const double rate = loss_cap_active_
                          ? std::min(delay_based_rate_, loss_based_rate_)
                          : delay_based_rate_;
  return std::clamp(rate, cfg_.min_rate_bps, cfg_.max_rate_bps);
}

}  // namespace zhuge::cca
