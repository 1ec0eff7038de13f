#pragma once
// Zhuge Fortune Teller (§4): per-packet delay prediction at the AP.
//
// On each downlink packet arrival the teller predicts the delay that packet
// will experience to the client:
//
//   totalDelay = qLong + qShort + tx                      (Fig. 6)
//     qLong  = cur(qSize) / avg(txRate)
//       with qSize = max(bytesInQueue - maxBurstSize, 0)  (Eq. 1)
//     qShort = cur(qFrontWaitTime)
//     tx     = avg(dequeueIntvl), ignoring intervals < 1 ms
//
// qLong covers queue build-up from bursty RTC arrivals; qShort is the
// instant signal of a stalling channel (head-of-queue sojourn); tx is the
// link-layer transmission delay. Averages use a sliding window (40 ms by
// default — one video frame interval at 25 fps, §7.1), resolving the
// transience-equilibrium nexus that defeats a single-window estimator.
//
// Hot-path layout (PR 8): on_dequeue() and predict() run for *every*
// downlink packet at the AP, so both are defined inline here — the
// windowed estimators they drive are SoA ring buffers (stats/windowed.hpp)
// and the compiler fuses the record/evict/query chain into one straight
// pass without a cross-TU call per packet. The arithmetic is unchanged
// from the out-of-line implementation; tests/fortune_teller_test.cpp pins
// bit-equivalence against a reference deque implementation and the golden
// scenario fingerprints pin it end-to-end.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "queue/qdisc.hpp"
#include "sim/time.hpp"
#include "stats/windowed.hpp"

namespace zhuge::core {

using sim::Duration;
using sim::TimePoint;

/// Tuning knobs for the Fortune Teller. Defaults follow the paper.
struct FortuneTellerConfig {
  Duration window = Duration::millis(40);     ///< avg(.) sliding window
  double fallback_rate_bps = 10e6;  ///< used before any departure is seen
  Duration fallback_tx = Duration::millis(2);       ///< tx before any sample
  Duration max_prediction = Duration::seconds(4);   ///< sanity clamp
  bool burst_adjustment = true;   ///< Eq. 1 on/off (ablation)
  bool use_qshort = true;         ///< qShort term on/off (ablation)

  friend bool operator==(const FortuneTellerConfig&, const FortuneTellerConfig&) = default;
};

/// Per-flow delay predictor. Feed it every departure of the flow from the
/// network-layer queue via on_dequeue(); ask predict() on packet arrival.
class FortuneTeller {
 public:
  /// Departures closer together than this are one burst (simultaneity).
  static constexpr Duration kBurstResolution = Duration::millis(1);
  static constexpr Duration kBurstWindow = Duration::millis(200);  ///< maxBurstSize lookback

  explicit FortuneTeller(FortuneTellerConfig cfg = {})
      : cfg_(cfg),
        tx_rate_(cfg.window),
        dequeue_interval_(cfg.window),
        burst_max_(kBurstWindow) {}

  /// Record one packet of this flow leaving the network-layer queue.
  /// Multiple packets aggregated into one AMPDU arrive here at the same
  /// instant and are folded into a single burst. `queue_empty_after` must
  /// be true when this departure left the flow's queue empty: the gap that
  /// follows an emptied queue is application idle time (e.g. the spacing
  /// between video frames), not channel latency, and must not contaminate
  /// the avg(dequeueIntvl) transmission-delay estimate.
  void on_dequeue(std::int64_t bytes, TimePoint now, bool queue_empty_after = false) {
    tx_rate_.record(now, bytes);

    if (last_dequeue_ns_ != kNoDequeue) {
      const Duration gap = now - TimePoint{last_dequeue_ns_};
      if (gap >= kBurstResolution) {
        // A new burst begins: the previous one is complete.
        finalize_burst(now);
        // Record the inter-departure interval; sub-millisecond gaps are
        // intra-AMPDU and tell us nothing about the channel (§4.2), and a
        // gap that followed an emptied queue is application idle time.
        if (!last_left_queue_empty_) {
          dequeue_interval_.record(now, gap.to_seconds());
        }
        current_burst_bytes_ = bytes;
        current_burst_start_ = now;
      } else {
        current_burst_bytes_ += bytes;  // same simultaneous departure
      }
    } else {
      current_burst_bytes_ = bytes;
      current_burst_start_ = now;
    }
    last_dequeue_ns_ = now.count_ns();
    last_left_queue_empty_ = queue_empty_after;
  }

  /// Per-component prediction (for tests, Fig. 7 and the heatmap bench).
  struct Prediction {
    Duration q_long;
    Duration q_short;
    Duration tx;
    [[nodiscard]] Duration total() const { return q_long + q_short + tx; }
  };

  /// Predict the delay a packet arriving now would experience, given the
  /// queue's current state for this flow.
  [[nodiscard]] Prediction predict(TimePoint now, std::int64_t queue_bytes,
                                   std::optional<TimePoint> head_since) {
    Prediction out{};

    // qLong (Eq. 1): queue backlog beyond one link-layer burst, divided by
    // the windowed dequeue rate.
    std::int64_t q_size = queue_bytes;
    if (cfg_.burst_adjustment) {
      q_size = std::max<std::int64_t>(queue_bytes - max_burst_bytes(now), 0);
    }
    const double rate = tx_rate_.rate_bps_or(now, cfg_.fallback_rate_bps);
    out.q_long = Duration::from_seconds(static_cast<double>(q_size) * 8.0 / rate);

    // qShort: how long the current head packet has been waiting for a grant.
    if (cfg_.use_qshort && head_since.has_value()) {
      out.q_short = now - *head_since;
    }

    // tx: link-layer transmission delay.
    out.tx = tx_delay(now);

    // Sanity clamp: predictions beyond the clamp are equally actionable.
    const Duration total = out.q_long + out.q_short + out.tx;
    if (total > cfg_.max_prediction) {
      const double scale = cfg_.max_prediction.ratio(total);
      out.q_long = out.q_long * scale;
      out.q_short = out.q_short * scale;
      out.tx = out.tx * scale;
    }

    ZHUGE_METRIC_INC("fortune.predictions");
    ZHUGE_METRIC_OBSERVE("fortune.predicted_ms", out.total().to_millis());
    ZHUGE_TRACE(now, "fortune", "predict", {"qLong_ms", out.q_long.to_millis()},
                {"qShort_ms", out.q_short.to_millis()},
                {"tx_ms", out.tx.to_millis()},
                {"queue_bytes", double(queue_bytes)}, {"rate_mbps", rate / 1e6});
    return out;
  }

  /// Convenience overload reading per-flow state straight from a qdisc.
  [[nodiscard]] Prediction predict(TimePoint now, const queue::Qdisc& qdisc,
                                   const net::FlowId& flow) {
    return predict(now, qdisc.byte_count_flow(flow), qdisc.head_since_flow(flow));
  }

  /// Current avg(txRate) estimate in bits/second (fallback if no samples).
  [[nodiscard]] double tx_rate_bps(TimePoint now) {
    return tx_rate_.rate_bps_or(now, cfg_.fallback_rate_bps);
  }

  /// Current avg(dequeueIntvl) estimate. Dequeue intervals are strictly
  /// positive, so a negative sentinel cleanly marks "no samples".
  [[nodiscard]] Duration tx_delay(TimePoint now) {
    const double m = dequeue_interval_.mean_or(now, -1.0);
    if (m < 0.0) return cfg_.fallback_tx;
    return Duration::from_seconds(m);
  }

  /// Current maxBurstSize (bytes) within the burst window.
  [[nodiscard]] std::int64_t max_burst_bytes(TimePoint now) {
    // Include the burst currently being accumulated.
    const double past = burst_max_.max(now, 0.0);
    return static_cast<std::int64_t>(
        std::max(past, static_cast<double>(current_burst_bytes_)));
  }

  [[nodiscard]] const FortuneTellerConfig& config() const { return cfg_; }

 private:
  void finalize_burst(TimePoint now) {
    if (current_burst_bytes_ > 0) {
      burst_max_.record(now, static_cast<double>(current_burst_bytes_));
    }
    current_burst_bytes_ = 0;
  }

  /// Sentinel for "no departure seen yet" — cheaper to test per packet
  /// than an engaged-optional flag, and no legitimate departure can carry
  /// it (simulation time is non-negative).
  static constexpr std::int64_t kNoDequeue = std::numeric_limits<std::int64_t>::min();

  FortuneTellerConfig cfg_;
  stats::WindowedRate tx_rate_;
  stats::WindowedMean dequeue_interval_;  ///< seconds, intervals >= 1 ms only
  stats::WindowedMax burst_max_;          ///< bytes per <=1 ms departure burst

  std::int64_t last_dequeue_ns_ = kNoDequeue;
  bool last_left_queue_empty_ = false;
  std::int64_t current_burst_bytes_ = 0;
  TimePoint current_burst_start_;
};

}  // namespace zhuge::core
