#pragma once
// Zhuge Feedback Updater — out-of-band protocols (§5.2, Algorithms 1–2).
//
// For TCP/QUIC-style protocols the *timing* of ACK arrivals is the
// congestion signal, so Zhuge delays uplink ACKs to mirror the delays the
// Fortune Teller predicts for downlink data:
//
//  * Relative deltas, not absolutes — only the packet-to-packet *change*
//    in predicted delay is applied, so a steadily-built queue adds no
//    steady-state RTT inflation.
//  * Distributional equivalence — each ACK samples a delay from the recent
//    delta distribution rather than accumulating every delta into one ACK.
//  * Delay tokens — negative deltas (queue draining) cannot be applied as
//    negative waiting time; they first *retreat* already-scheduled holds
//    (so drain news travels as fast as congestion news) and any remainder
//    is banked to cancel future positive samples, keeping the mean applied
//    delay equal to the mean predicted delta.
//  * Order preservation — an ACK is never scheduled before the previously
//    scheduled ACK of the same flow.
//  * Conservation — the cumulative applied shift never exceeds the
//    cumulative positive delta observed on data packets (sampling draws
//    with replacement, so an uncapped sampler could re-apply one large
//    delta many times when ACKs momentarily outnumber data packets).
//
// Note on Algorithm 2 line 1: the paper prints `min(0, lastSentTime −
// curArrvTime)`, which is non-positive and would defeat the stated goal of
// order preservation; we implement the evident intent, `max(0, …)`.
// Tokens are consumed against the sampled delta only, never against the
// order-preserving floor — consuming the floor (as a literal reading of
// lines 3–10 would) could reorder feedback, which §5.2 explicitly forbids.

#include <cstdint>
#include <memory>

#include "core/ack_scheduler.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "stats/windowed.hpp"

namespace zhuge::core {

using sim::Duration;
using sim::TimePoint;

/// Configuration for the out-of-band updater.
struct OobConfig {
  /// Per-ACK clamp on the added delay. Must stay safely below the
  /// sender's minimum RTO: an ACK held longer than the RTO fires a
  /// spurious timeout, collapsing the window the mechanism is trying to
  /// steer gently.
  Duration max_extra_delay = Duration::millis(120);
  /// Cap on how far the ACK release clock may run ahead of real time.
  /// During a deep fade the predicted deltas legitimately sum to seconds;
  /// scheduling ACKs that far out blacks the feedback stream out long
  /// after the queue has drained. An ACK ~250 ms late already says "delay
  /// blew up" as loudly as a 4 s one.
  Duration max_pending_shift = Duration::millis(250);
  bool distributional_sampling = true;  ///< false = accumulate deltas (ablation)
  bool use_tokens = true;               ///< false = discard negative deltas (ablation)
  bool retreat_pending = true;          ///< false = one-shot holds (ablation)
  /// EWMA applied to the predicted totalDelay before delta extraction.
  /// Packets later in a frame burst genuinely wait longer, and their ACKs
  /// already carry that delay naturally — re-applying the intra-burst
  /// sawtooth as extra ACK delay would double the path's delay variance
  /// and poison delay-sensitive CCAs (Copa's dq floor). Smoothing keeps
  /// multi-packet trends (real ABW changes) and drops per-packet noise.
  /// 1.0 disables smoothing (the paper's literal Algorithm 1).
  double delta_smoothing_alpha = 0.25;

  friend bool operator==(const OobConfig&, const OobConfig&) = default;
};

/// Per-flow out-of-band feedback state machine.
///
/// Two construction modes:
///  * computation-only (tests, CPU benches): ack_delay() returns the hold
///    time and the caller does its own scheduling;
///  * full (the AP): schedule_feedback() owns holding and releasing the
///    packets, including retreating pending holds on queue drain.
class OobFeedbackUpdater {
 public:
  static constexpr Duration kDeltaWindow = Duration::millis(40);  ///< delta-history span

  /// Computation-only mode.
  OobFeedbackUpdater(OobConfig cfg, sim::Rng& rng)
      : cfg_(cfg), rng_(rng), delta_history_(kDeltaWindow) {}

  /// Full mode: held packets are released through `out`.
  OobFeedbackUpdater(sim::Simulator& simulator, OobConfig cfg, sim::Rng& rng,
                     net::PacketHandler out)
      : cfg_(cfg), rng_(rng), delta_history_(kDeltaWindow) {
    scheduler_ = std::make_unique<AckScheduler>(simulator, std::move(out));
    // Every hold is floor+extra <= max_pending_shift by construction;
    // declare that as a checked bound so regressions (and faults that
    // would strand ACKs) surface as feedback.hold_bound violations.
    scheduler_->set_max_hold(cfg.max_pending_shift);
  }

  /// Algorithm 1: fold one predicted totalDelay into the delta state.
  void on_data_delay(Duration total_delay, TimePoint now) {
    if (has_last_) {
      total_delay = last_total_delay_ +
                    (total_delay - last_total_delay_) * cfg_.delta_smoothing_alpha;
      const Duration delta = total_delay - last_total_delay_;
      ZHUGE_TRACE(now, "feedback.oob", "data_delta",
                  {"delta_ms", delta.to_millis()},
                  {"smoothed_total_ms", total_delay.to_millis()},
                  {"token_total_ms", token_total_.to_millis()});
      if (delta >= Duration::zero()) {
        observed_shift_ += delta;
        if (cfg_.distributional_sampling) {
          delta_history_.record(now, delta.to_seconds());
        } else {
          pending_accumulated_ += delta;  // ablation: per-ACK accumulation
        }
      } else {
        Duration credit = -delta;
        if (scheduler_ != nullptr && cfg_.retreat_pending) {
          // Queue draining: pull already-scheduled holds back first so the
          // sender learns of the drain immediately.
          const Duration retreated = scheduler_->retreat(credit);
          applied_shift_ -= retreated;
          if (applied_shift_ < Duration::zero()) applied_shift_ = Duration::zero();
          credit -= retreated;
        }
        if (cfg_.use_tokens && !conservative_ && credit > Duration::zero()) {
          token_history_.push_back(credit);
          token_total_ += credit;
        }
      }
    }
    last_total_delay_ = total_delay;
    has_last_ = true;
  }

  /// Algorithm 2, computation-only form: how long to hold the feedback
  /// packet arriving at `now`. Advances the release clock; call exactly
  /// once per feedback packet.
  [[nodiscard]] Duration ack_delay(TimePoint now) {
    const TimePoint last =
        scheduler_ != nullptr ? scheduler_->last_release(now)
                              : (has_sent_ ? last_sent_time_ : now);
    const Duration floor = last > now ? last - now : Duration::zero();
    const Duration extra = draw_extra(now, floor);
    const Duration actual = floor + extra;
    ZHUGE_INVARIANT(now, "feedback.extra_bound", extra <= cfg_.max_extra_delay,
                    "sampled extra exceeds max_extra_delay");
    last_sent_time_ = now + actual;
    has_sent_ = true;
    ZHUGE_METRIC_INC("feedback.oob.acks");
    ZHUGE_METRIC_OBSERVE("feedback.oob.ack_hold_ms", actual.to_millis());
    ZHUGE_TRACE(now, "feedback.oob", "ack_hold", {"hold_ms", actual.to_millis()},
                {"floor_ms", floor.to_millis()}, {"extra_ms", extra.to_millis()},
                {"pending_holds", double(pending_holds())});
    return actual;
  }

  /// Full-mode entry: compute the hold and enqueue the packet for release.
  void schedule_feedback(net::Packet&& p, TimePoint now) {
    const Duration actual = ack_delay(now);
    scheduler_->hold(std::move(p), now + actual);
  }

  /// Full-mode entry for degraded ladder levels: hold at the
  /// order-preserving floor only. No sampling, no token consumption, no
  /// RNG draw — feedback order stays intact across the level change but
  /// no new delay is ever added.
  void schedule_feedback_floor(net::Packet&& p, TimePoint now) {
    const TimePoint last = scheduler_->last_release(now);
    const Duration floor = last > now ? last - now : Duration::zero();
    last_sent_time_ = now + floor;
    has_sent_ = true;
    ZHUGE_METRIC_INC("feedback.oob.floor_acks");
    scheduler_->hold(std::move(p), now + floor);
  }

  /// Conservative mode (ladder level ClampedPredict): negative deltas
  /// still retreat pending holds — drain news must keep travelling fast —
  /// but are never banked as tokens, and the existing bank is dropped on
  /// entry. Stale credit cannot cancel delay applied after recovery.
  void set_conservative(bool on) {
    if (on && !conservative_) {
      token_history_.clear();
      token_total_ = Duration::zero();
    }
    conservative_ = on;
  }
  [[nodiscard]] bool conservative() const { return conservative_; }

  /// Outstanding token budget (tests / introspection).
  [[nodiscard]] Duration token_total() const { return token_total_; }
  [[nodiscard]] Duration applied_shift() const { return applied_shift_; }
  [[nodiscard]] Duration observed_shift() const { return observed_shift_; }
  [[nodiscard]] std::size_t pending_holds() const {
    return scheduler_ == nullptr ? 0 : scheduler_->pending();
  }

  /// Release every held ACK immediately (teardown / fail-open). Returns
  /// how many packets were flushed.
  std::size_t flush_pending() {
    return scheduler_ == nullptr ? 0 : scheduler_->flush();
  }

  /// Reset learning state after an outage or AP restart. The release
  /// clock (last_sent_time_) is *kept*: ACKs observed before the outage
  /// were genuinely sent, and forgetting them could reorder feedback.
  /// Delta history ages out of its window on its own.
  void reset_after_outage() {
    token_history_.clear();
    token_total_ = Duration::zero();
    observed_shift_ = Duration::zero();
    applied_shift_ = Duration::zero();
    pending_accumulated_ = Duration::zero();
    has_last_ = false;
  }

  /// Clock discontinuity between AP and the rest of the network. After a
  /// backward jump the remembered release clock can sit far in the new
  /// future and would freeze feedback; clamp it into a sane band.
  void on_clock_jump(TimePoint now) {
    if (!has_sent_) return;
    const TimePoint hi = now + cfg_.max_pending_shift;
    if (last_sent_time_ > hi) last_sent_time_ = hi;
    if (last_sent_time_ < now) last_sent_time_ = now;
  }

 private:
  /// Sample a delta, consume tokens, apply conservation and caps.
  [[nodiscard]] Duration draw_extra(TimePoint now, Duration floor) {
    Duration extra = Duration::zero();
    if (cfg_.distributional_sampling) {
      if (const auto s = delta_history_.sample(now, rng_); s.has_value()) {
        extra = Duration::from_seconds(*s);
      }
    } else {
      extra = pending_accumulated_;
      pending_accumulated_ = Duration::zero();
    }

    // Consume banked negative deltas against the sampled part only.
    while (!token_history_.empty() && extra > Duration::zero()) {
      Duration& front = token_history_.front();
      if (front > extra) {
        front -= extra;
        token_total_ -= extra;
        extra = Duration::zero();
        break;
      }
      extra -= front;
      token_total_ -= front;
      token_history_.pop_front();
    }

    // Conservation cap.
    const Duration budget = observed_shift_ - applied_shift_;
    if (extra > budget) extra = std::max(budget, Duration::zero());
    if (extra > cfg_.max_extra_delay) extra = cfg_.max_extra_delay;
    // Pending-shift cap.
    if (floor + extra > cfg_.max_pending_shift) {
      extra = floor >= cfg_.max_pending_shift ? Duration::zero()
                                              : cfg_.max_pending_shift - floor;
    }
    applied_shift_ += extra;
    return extra;
  }

  OobConfig cfg_;
  sim::Rng& rng_;
  stats::WindowedSampler delta_history_;  ///< recent non-negative deltas (s)
  sim::Ring<Duration> token_history_;
  Duration token_total_ = Duration::zero();
  std::unique_ptr<AckScheduler> scheduler_;  ///< full mode only

  Duration observed_shift_ = Duration::zero();  ///< cumulative +deltas seen
  Duration applied_shift_ = Duration::zero();   ///< cumulative delay applied

  Duration last_total_delay_ = Duration::zero();
  bool has_last_ = false;
  TimePoint last_sent_time_;
  bool has_sent_ = false;
  Duration pending_accumulated_ = Duration::zero();  ///< ablation mode only
  bool conservative_ = false;  ///< ladder ClampedPredict: no token banking
};

}  // namespace zhuge::core
