#pragma once
// Zhuge per-flow processor: Fortune Teller + Feedback Updater glue.
//
// One ZhugeFlow instance lives on the AP for each optimised RTC flow
// (flows are identified by 5-tuple only; §5.2). The AP calls:
//   * on_dequeue()  — every departure of the flow from the downlink qdisc
//   * on_downlink() — every downlink data packet, before it enters the
//                     wireless queue (predicts and records its fortune)
//   * on_uplink()   — every uplink packet of the reverse flow; the returned
//                     decision says whether to forward now, hold for a
//                     computed delay (out-of-band), or drop (a client TWCC
//                     that Zhuge replaces, in-band).
//
// Graded fail-open degradation (robustness; not in the paper): Zhuge sits
// in the feedback path, so a broken Zhuge is strictly worse than no Zhuge
// — a wedged optimiser that keeps holding ACKs or dropping client TWCC
// silently starves the sender's congestion controller. Instead of a
// binary degrade, the watchdog walks a ladder where each level strictly
// weakens the intervention:
//
//   Full            all interventions active (the paper's mechanism)
//   ClampedPredict  predictions staleness-bounded and clamped; negative
//                   delay tokens are no longer banked (conservative OOB)
//   HoldOnly        no fortunes are committed; client TWCC passes through
//                   undropped; OOB feedback is held at the order-
//                   preserving floor only (no new delay is ever added)
//   PassThrough     everything forwarded untouched and nothing annotated
//                   — byte-identical to running without Zhuge
//
// Escalation is per-trigger (prediction divergence floors at
// ClampedPredict, feedback silence at HoldOnly), rate-limited by a
// holddown, and flushes all held feedback. Recovery steps down one level
// at a time after a settle period with live feedback and no divergence;
// a re-escalation shortly after a step-down doubles the settle
// (exponential backoff on reactivation probes) until a full recovery
// resets it. Every move is recorded as an obs::LadderTransition for
// recovery-SLO accounting (obs/slo.hpp).

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/feedback_inband.hpp"
#include "core/feedback_oob.hpp"
#include "core/fortune_teller.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/tracer.hpp"
#include "queue/qdisc.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/windowed.hpp"

namespace zhuge::core {

/// Fail-open watchdog tuning. Thresholds are deliberately generous:
/// degrading a healthy flow costs real optimisation, so only sustained,
/// unambiguous brokenness may trip it.
struct WatchdogConfig {
  bool enabled = true;
  /// Uplink silence longer than this — while downlink data keeps flowing
  /// and an updater exists (i.e. Zhuge is actively intercepting feedback)
  /// — escalates the ladder (floor: HoldOnly).
  Duration feedback_timeout = Duration::millis(500);
  /// EWMA of |observed queue wait − predicted delay| above this (ms),
  /// sustained over min_divergence_samples, escalates the ladder
  /// (floor: ClampedPredict).
  double divergence_threshold_ms = 400.0;
  double divergence_alpha = 0.05;
  std::uint64_t min_divergence_samples = 200;
  /// Minimum time spent at a degraded level before a step-down probe.
  Duration recovery_settle = Duration::millis(250);
  /// Starting level. Anything but Full *pins* the ladder (no watchdog
  /// transitions) — an ablation/verification override, e.g. PassThrough
  /// must be fingerprint-identical to running without Zhuge.
  obs::LadderLevel initial_level = obs::LadderLevel::kFull;

  friend bool operator==(const WatchdogConfig&, const WatchdogConfig&) = default;
};

/// Everything tunable about one Zhuge flow.
struct ZhugeConfig {
  FortuneTellerConfig fortune{};
  OobConfig oob{};
  InbandConfig inband{};
  WatchdogConfig watchdog{};

  friend bool operator==(const ZhugeConfig&, const ZhugeConfig&) = default;
};

/// What the AP should do with an uplink packet.
enum class UplinkAction : std::uint8_t { kForward, kDelay, kDrop };

struct UplinkDecision {
  UplinkAction action = UplinkAction::kForward;
  Duration delay = Duration::zero();  ///< meaningful for kDelay
};

/// Per-flow Zhuge state machine.
class ZhugeFlow {
 public:
  // ---- graded-ladder tuning (the settable thresholds: WatchdogConfig) ----
  /// ClampedPredict: ceiling on any committed prediction.
  static constexpr double kClampedMaxPredictionMs = 100.0;
  /// ClampedPredict: with no own-flow dequeue seen this recently, the
  /// teller's view of the queue is stale — predict zero instead.
  static constexpr Duration kClampedStaleness = Duration::millis(250);
  /// Minimum spacing between successive escalations (hysteresis), so one
  /// sustained trigger climbs the ladder instead of leaping to the top.
  static constexpr Duration kEscalateHolddown = Duration::millis(200);
  /// A re-escalation within this window of the previous step-down means
  /// the probe failed: the settle period doubles (capped below).
  static constexpr Duration kProbeFailureWindow = Duration::seconds(1);
  static constexpr Duration kMaxRecoverySettle = Duration::seconds(4);

  /// `send_feedback` is the AP's wired uplink towards the sender; the
  /// in-band updater pushes its self-built TWCC packets through it.
  ZhugeFlow(sim::Simulator& simulator, sim::Rng& rng, net::FlowId flow,
            ZhugeConfig cfg, net::PacketHandler send_feedback)
      : sim_(simulator),
        rng_(rng),
        flow_(flow),
        cfg_(cfg),
        send_feedback_(std::move(send_feedback)),
        teller_(cfg.fortune),
        divergence_ms_(cfg.watchdog.divergence_alpha),
        level_(cfg.watchdog.initial_level),
        settle_(cfg.watchdog.recovery_settle),
        pinned_(cfg.watchdog.initial_level != obs::LadderLevel::kFull) {
    if (pinned_) {
      ladder_log_.push_back(obs::LadderTransition{
          0, 0, obs::LadderLevel::kFull, level_, obs::LadderReason::kForced});
    }
  }

  /// Feed departures of this flow from the downlink network-layer queue.
  /// `queue_empty_after`: the flow's queue is empty after this departure.
  void on_dequeue(const net::Packet& p, TimePoint now, bool queue_empty_after = false) {
    teller_.on_dequeue(p.size_bytes, now, queue_empty_after);
    if (p.flow == flow_) {
      last_own_dequeue_ = now;
      saw_own_dequeue_ = true;
    }
    // Prediction-quality tracking for the watchdog: compare the fortune
    // told at enqueue with the queue wait actually experienced. Own-flow
    // packets only (shared queues feed every teller every departure).
    if (p.flow == flow_ && p.predicted_delay_ms >= 0.0) {
      const double waited_ms = (now - p.ap_enqueue_time).to_millis();
      divergence_ms_.record(std::abs(waited_ms - p.predicted_delay_ms));
      ++divergence_samples_;
    }
  }

  /// Predict the fortune of a downlink data packet just before it is
  /// offered to the qdisc (the packet sees the queue in front of it, §2.3)
  /// and annotate `p.predicted_delay_ms`. At PassThrough nothing is
  /// predicted or annotated — the packet must be indistinguishable from a
  /// no-Zhuge run.
  [[nodiscard]] Duration predict_downlink(net::Packet& p, const queue::Qdisc& qdisc) {
    last_downlink_ = sim_.now();
    saw_downlink_ = true;
    if (level_ == obs::LadderLevel::kPassThrough) return Duration::zero();
    const auto pred = teller_.predict(sim_.now(), qdisc, flow_);
    Duration total = pred.total();
    if (level_ == obs::LadderLevel::kClampedPredict) {
      const bool stale = !saw_own_dequeue_ ||
                         sim_.now() - last_own_dequeue_ > kClampedStaleness;
      if (stale) {
        total = Duration::zero();
      } else {
        const Duration cap = Duration::from_millis(kClampedMaxPredictionMs);
        if (total > cap) total = cap;
      }
    }
    p.predicted_delay_ms = total.to_millis();
    return total;
  }

  /// Commit the predicted fortune to the feedback state. Call only after
  /// the packet was actually accepted by the qdisc: a tail-dropped packet
  /// must not be reported as (eventually) received — the AP sees the drop
  /// and keeps the loss visible to the sender. No-op from HoldOnly up:
  /// a failed-open flow records no fortunes (the client's own feedback is
  /// flowing instead).
  void commit_downlink(bool is_rtp, const net::RtpHeader* rtp, Duration total) {
    if (level_ >= obs::LadderLevel::kHoldOnly) return;
    if (is_rtp && rtp != nullptr) {
      inband(rtp->ssrc).on_rtp_packet(*rtp, total);
    } else {
      oob().on_data_delay(total, sim_.now());
    }
  }

  /// Convenience: predict + offer-independent commit (tests, benches).
  void on_downlink(net::Packet& p, const queue::Qdisc& qdisc) {
    const Duration total = predict_downlink(p, qdisc);
    if (p.is_rtp()) {
      commit_downlink(true, &p.rtp(), total);
    } else {
      commit_downlink(false, nullptr, total);
    }
  }

  /// Handle an uplink packet of the reverse flow end to end: drop it,
  /// forward it immediately, or hold it on the retreatable release queue.
  /// Returns the action taken (for the AP's counters). Intervention
  /// strictly weakens as the ladder level rises; at PassThrough everything
  /// passes untouched (fail-open).
  UplinkAction handle_uplink(net::Packet&& p) {
    touch_uplink();
    if (level_ == obs::LadderLevel::kPassThrough) {
      send_feedback_(std::move(p));
      return UplinkAction::kForward;
    }
    if (level_ == obs::LadderLevel::kHoldOnly) {
      // No TWCC drops and no new delay. OOB feedback only rides the
      // scheduler (at the order-preserving floor) while earlier holds are
      // still pending, so the level change can never reorder feedback;
      // with nothing pending it passes straight through.
      if (!p.is_rtcp() && oob_ && oob_->pending_holds() > 0 &&
          ((p.is_tcp() && p.tcp().is_ack) || !p.is_rtp())) {
        oob_->schedule_feedback_floor(std::move(p), sim_.now());
        return UplinkAction::kDelay;
      }
      send_feedback_(std::move(p));
      return UplinkAction::kForward;
    }
    if (p.is_rtcp()) {
      if (inband_ && inband_->should_drop_uplink(p)) return UplinkAction::kDrop;
      send_feedback_(std::move(p));
      return UplinkAction::kForward;
    }
    const bool oob_feedback = (p.is_tcp() && p.tcp().is_ack) || !p.is_rtp();
    if (oob_feedback && oob_) {
      oob_->schedule_feedback(std::move(p), sim_.now());
      return UplinkAction::kDelay;
    }
    send_feedback_(std::move(p));
    return UplinkAction::kForward;
  }

  /// Decide what to do with an uplink packet of the reverse flow
  /// (introspection form used by unit tests; does not forward anything).
  [[nodiscard]] UplinkDecision on_uplink(const net::Packet& p) {
    touch_uplink();
    if (level_ == obs::LadderLevel::kPassThrough) {
      return {UplinkAction::kForward, Duration::zero()};
    }
    if (level_ == obs::LadderLevel::kHoldOnly) {
      return {UplinkAction::kForward, Duration::zero()};
    }
    if (p.is_rtcp()) {
      // In-band mode: drop the client's own TWCC (Zhuge builds its own);
      // NACKs and receiver reports pass through untouched.
      if (inband_ && inband_->should_drop_uplink(p)) {
        return {UplinkAction::kDrop, Duration::zero()};
      }
      return {UplinkAction::kForward, Duration::zero()};
    }
    if (p.is_tcp() && p.tcp().is_ack && oob_) {
      return {UplinkAction::kDelay, oob_->ack_delay(sim_.now())};
    }
    // Unknown/encrypted out-of-band feedback: if we have been predicting
    // for this flow in OOB mode, treat any reverse-direction packet as
    // feedback (QUIC case — headers unreadable, 5-tuple only).
    if (!p.is_rtp() && oob_) {
      return {UplinkAction::kDelay, oob_->ack_delay(sim_.now())};
    }
    return {UplinkAction::kForward, Duration::zero()};
  }

  /// Evaluate the fail-open watchdog. Event-driven: the AP calls this on
  /// packet arrivals (no timer — a silent *network* has nothing to fail
  /// open for, and a recurring timer would keep an otherwise-finished
  /// simulation alive forever).
  void check_watchdog(TimePoint now) {
    if (!cfg_.watchdog.enabled || pinned_) return;
    if (level_ < obs::LadderLevel::kPassThrough) {
      const bool silence = feedback_silent(now);
      const bool diverged = divergence_tripped();
      if (silence || diverged) {
        const bool holddown_ok =
            !has_escalated_ ||
            now - last_escalation_ >= kEscalateHolddown;
        if (holddown_ok) {
          escalate(now, silence ? obs::LadderReason::kFeedbackSilence
                                : obs::LadderReason::kPredictionDivergence);
        }
        return;
      }
    }
    // Recovery probe: step down one level once feedback is demonstrably
    // alive again, predictions are no longer wildly off, and we have sat
    // out the (possibly backed-off) settle period.
    if (level_ == obs::LadderLevel::kFull) return;
    if (now - level_since_ < settle_) return;
    const bool uplink_alive =
        saw_uplink_ && now - last_uplink_ < cfg_.watchdog.feedback_timeout / 2;
    if (uplink_alive && !divergence_tripped()) step_down(now);
  }

  /// Flush every held/pending feedback artefact immediately. Called on
  /// flow teardown and before destruction during a live simulation — an
  /// ACK recorded by Zhuge must never be stranded. Idempotent.
  /// Returns how many packets were released.
  std::size_t teardown() {
    std::size_t flushed = 0;
    if (oob_) flushed += oob_->flush_pending();
    if (inband_) {
      const auto before = inband_->feedback_sent();
      inband_->flush_now();
      flushed += static_cast<std::size_t>(inband_->feedback_sent() - before);
    }
    flushed_on_teardown_ += flushed;
    return flushed;
  }

  /// AP clock discontinuity of `delta` (positive = jumped forward).
  void on_clock_jump(Duration delta) {
    if (oob_) oob_->on_clock_jump(sim_.now());
    if (inband_) inband_->on_clock_jump(delta);
    ZHUGE_TRACE(sim_.now(), "zhuge", "clock_jump",
                {"delta_ms", delta.to_millis()});
  }

  /// Test/ablation hook: jump to `level` (reason Forced) and pin the
  /// ladder there. Escalating moves flush held feedback like a watchdog
  /// escalation would.
  void force_level(obs::LadderLevel level) {
    pinned_ = true;
    if (level == level_) return;
    set_level(sim_.now(), level, obs::LadderReason::kForced);
  }

  [[nodiscard]] FortuneTeller& fortune_teller() { return teller_; }
  [[nodiscard]] const net::FlowId& flow() const { return flow_; }
  [[nodiscard]] obs::LadderLevel level() const { return level_; }
  [[nodiscard]] const std::vector<obs::LadderTransition>& ladder_log() const {
    return ladder_log_;
  }
  [[nodiscard]] std::uint64_t degrade_count() const { return degrade_count_; }
  [[nodiscard]] std::uint64_t reactivate_count() const { return reactivate_count_; }
  [[nodiscard]] std::uint64_t flushed_on_teardown() const { return flushed_on_teardown_; }
  [[nodiscard]] std::uint64_t divergence_samples() const { return divergence_samples_; }
  [[nodiscard]] std::size_t pending_feedback() const {
    std::size_t n = 0;
    if (oob_) n += oob_->pending_holds();
    if (inband_) n += inband_->pending_entries();
    return n;
  }

 private:
  [[nodiscard]] bool feedback_silent(TimePoint now) const {
    // Silence only means something when Zhuge is actually intercepting
    // feedback (an updater exists), feedback has flowed before, and the
    // downlink is currently active — otherwise the whole path is idle.
    if (oob_ == nullptr && inband_ == nullptr) return false;
    if (!saw_uplink_ || !saw_downlink_) return false;
    return now - last_uplink_ > cfg_.watchdog.feedback_timeout &&
           now - last_downlink_ < cfg_.watchdog.feedback_timeout / 4;
  }

  [[nodiscard]] bool divergence_tripped() const {
    return divergence_samples_ >= cfg_.watchdog.min_divergence_samples &&
           divergence_ms_.has_value() &&
           divergence_ms_.value() > cfg_.watchdog.divergence_threshold_ms;
  }

  /// Move to `to`, recording the transition and applying per-level side
  /// effects. Divergence evidence resets on every move: samples gathered
  /// under one intervention regime say nothing about the next one.
  void set_level(TimePoint now, obs::LadderLevel to, obs::LadderReason reason) {
    const obs::LadderLevel from = level_;
    if (to > from) teardown();  // escalation must never strand feedback
    level_ = to;
    level_since_ = now;
    divergence_ms_.reset();
    divergence_samples_ = 0;
    if (oob_) oob_->set_conservative(to == obs::LadderLevel::kClampedPredict);
    ladder_log_.push_back(
        obs::LadderTransition{now.count_ns(), 0, from, to, reason});
    ZHUGE_TRACE(now, "zhuge", "ladder",
                {"from", static_cast<double>(static_cast<int>(from))},
                {"to", static_cast<double>(static_cast<int>(to))},
                {"reason", static_cast<double>(static_cast<int>(reason))});
  }

  void escalate(TimePoint now, obs::LadderReason reason) {
    // Per-trigger floor: divergence says predictions are wrong (stop
    // trusting them), silence says the whole loop is broken (stop
    // intervening). A repeat of the same trigger climbs one more level.
    const obs::LadderLevel floor =
        reason == obs::LadderReason::kFeedbackSilence
            ? obs::LadderLevel::kHoldOnly
            : obs::LadderLevel::kClampedPredict;
    obs::LadderLevel to = std::max(
        static_cast<obs::LadderLevel>(static_cast<std::uint8_t>(level_) + 1),
        floor);
    if (to > obs::LadderLevel::kPassThrough) to = obs::LadderLevel::kPassThrough;
    // A failed recovery probe (re-escalation shortly after a step-down)
    // doubles the settle period — exponential backoff on reactivation.
    if (has_stepped_down_ &&
        now - last_step_down_ <= kProbeFailureWindow) {
      settle_ = std::min(settle_ * 2.0, kMaxRecoverySettle);
    }
    last_escalation_ = now;
    has_escalated_ = true;
    ++degrade_count_;
    set_level(now, to, reason);
    ZHUGE_METRIC_INC("zhuge.degrade");
  }

  void step_down(TimePoint now) {
    const auto from = level_;
    const auto to =
        static_cast<obs::LadderLevel>(static_cast<std::uint8_t>(level_) - 1);
    last_step_down_ = now;
    has_stepped_down_ = true;
    ++reactivate_count_;
    set_level(now, to, obs::LadderReason::kRecoveryProbe);
    // Crossing back below HoldOnly re-enables commits after a suspension:
    // the updaters' learning state (sequence unwrapper, delta history,
    // token bank) is outage-era garbage by now — wipe it before the first
    // post-recovery fortune lands. The release clock is kept either way;
    // feedback order must survive the outage.
    if (from >= obs::LadderLevel::kHoldOnly || to == obs::LadderLevel::kFull) {
      if (oob_) oob_->reset_after_outage();
      if (inband_) inband_->reset_after_outage();
    }
    if (to == obs::LadderLevel::kFull) settle_ = cfg_.watchdog.recovery_settle;
    ZHUGE_METRIC_INC("zhuge.reactivate");
  }

  void touch_uplink() {
    last_uplink_ = sim_.now();
    saw_uplink_ = true;
  }

  OobFeedbackUpdater& oob() {
    if (!oob_) {
      oob_ = std::make_unique<OobFeedbackUpdater>(sim_, cfg_.oob, rng_,
                                                  send_feedback_);
      oob_->set_conservative(level_ == obs::LadderLevel::kClampedPredict);
    }
    return *oob_;
  }
  InbandFeedbackUpdater& inband(std::uint32_t ssrc) {
    if (!inband_) {
      inband_ = std::make_unique<InbandFeedbackUpdater>(sim_, cfg_.inband, flow_,
                                                        ssrc, send_feedback_);
    }
    return *inband_;
  }

  sim::Simulator& sim_;
  sim::Rng& rng_;
  net::FlowId flow_;
  ZhugeConfig cfg_;
  net::PacketHandler send_feedback_;
  FortuneTeller teller_;
  std::unique_ptr<OobFeedbackUpdater> oob_;
  std::unique_ptr<InbandFeedbackUpdater> inband_;

  TimePoint last_uplink_;
  TimePoint last_downlink_;
  TimePoint last_own_dequeue_;
  bool saw_uplink_ = false;
  bool saw_downlink_ = false;
  bool saw_own_dequeue_ = false;
  stats::Ewma divergence_ms_;
  std::uint64_t divergence_samples_ = 0;

  // ---- ladder state ----
  obs::LadderLevel level_;
  TimePoint level_since_;
  TimePoint last_escalation_;
  TimePoint last_step_down_;
  Duration settle_;
  bool pinned_ = false;
  bool has_escalated_ = false;
  bool has_stepped_down_ = false;
  std::vector<obs::LadderTransition> ladder_log_;

  std::uint64_t degrade_count_ = 0;
  std::uint64_t reactivate_count_ = 0;
  std::uint64_t flushed_on_teardown_ = 0;
};

}  // namespace zhuge::core
