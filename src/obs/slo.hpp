#pragma once
// Recovery-SLO accounting for the Zhuge control-loop degradation ladder.
//
// core/zhuge.hpp escalates a per-flow ladder (Full -> ClampedPredict ->
// HoldOnly -> PassThrough) when its feedback path misbehaves, and steps
// back down as evidence of health returns. Each move is recorded as a
// LadderTransition. This module turns a run's transition log plus the
// fault window into the SLO numbers the chaos matrix regresses on:
// time-to-detect, time-to-recover, per-level dwell, frames lost while
// degraded, and post-recovery tail latency vs the healthy baseline.
//
// Layering: obs may depend only on sim, so inputs arrive as plain
// vectors (the app layer converts its stats::TimeSeries); aggregate CDFs
// reuse the same log-bucket Histogram machinery as latency attribution.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace zhuge::obs {

/// Degradation ladder levels, weakest intervention last. Order matters:
/// comparisons ("deeper than") use the underlying value.
enum class LadderLevel : std::uint8_t {
  kFull = 0,            ///< all Zhuge interventions active
  kClampedPredict = 1,  ///< staleness-bounded predictions, no token banking
  kHoldOnly = 2,        ///< no commits; feedback forwarded floor-only
  kPassThrough = 3,     ///< byte-identical to Zhuge-off
};
inline constexpr std::size_t kLadderLevelCount = 4;

/// Each level's name, indexed by its value.
inline constexpr const char* kLadderLevelNames[kLadderLevelCount] = {
    "full", "clamped_predict", "hold_only", "pass_through"};

[[nodiscard]] inline const char* ladder_level_name(LadderLevel level) {
  return kLadderLevelNames[static_cast<std::size_t>(level)];
}

/// Why a flow moved between ladder levels.
enum class LadderReason : std::uint8_t {
  kFeedbackSilence = 0,       ///< uplink feedback went quiet
  kPredictionDivergence = 1,  ///< Fortune Teller error EWMA tripped
  kRecoveryProbe = 2,         ///< settle timer elapsed with healthy signals
  kForced = 3,                ///< configured initial level or test hook
};

/// One ladder move of one flow. `flow_key` disambiguates flows when an
/// AP aggregates logs; within a flow the log is time-ordered.
struct LadderTransition {
  std::int64_t at_ns = 0;
  std::uint32_t flow_key = 0;
  LadderLevel from = LadderLevel::kFull;
  LadderLevel to = LadderLevel::kFull;
  LadderReason reason = LadderReason::kForced;
};

/// One decoded frame, as (decode instant, frame delay) — the app layer
/// flattens its frame-delay series into this.
struct FramePoint {
  std::int64_t at_ns = 0;
  double delay_ms = 0.0;
};

/// Everything compute_recovery_slo needs about one run.
struct SloInputs {
  /// All flows' transitions; sorted internally by (at_ns, flow_key).
  std::vector<LadderTransition> transitions;
  std::int64_t fault_start_ns = 0;
  std::int64_t fault_end_ns = 0;
  std::int64_t run_end_ns = 0;
  /// Configured decode rate; 0 disables frame-loss accounting.
  double video_fps = 0.0;
  /// Decoded frames of the primary flow (may be empty).
  std::vector<FramePoint> frames;
};

/// The per-run SLO verdict. Times are -1 when the event never happened.
struct RecoverySlo {
  bool triggered = false;   ///< any escalation at/after fault start
  bool recovered = false;   ///< envelope back at kFull and stable to run end
  double time_to_detect_ms = -1.0;   ///< fault start -> first escalation
  double time_to_recover_ms = -1.0;  ///< fault end -> stable return to kFull
  /// Time the cross-flow envelope (max level over flows) spends at each
  /// level within [fault_start, run_end].
  double dwell_ms[kLadderLevelCount] = {0.0, 0.0, 0.0, 0.0};
  LadderLevel deepest = LadderLevel::kFull;
  std::uint32_t escalations = 0;  ///< whole-run count of upward moves
  std::uint32_t step_downs = 0;   ///< whole-run count of downward moves
  /// Frame accounting over the degraded (envelope > kFull) windows.
  std::uint64_t frames_expected_in_transition = 0;
  std::uint64_t frames_decoded_in_transition = 0;
  std::uint64_t frames_lost_in_transition = 0;
  /// Frame-delay p95 before the fault vs after recovery (0 when the
  /// window holds no frames); ratio is 0 until both are populated.
  double healthy_p95_ms = 0.0;
  double post_recovery_p95_ms = 0.0;
  double post_over_healthy_p95 = 0.0;
};

/// Compute the recovery SLO for one run. Deterministic: exact-rank
/// percentiles over sorted copies, no histogram quantisation.
[[nodiscard]] RecoverySlo compute_recovery_slo(const SloInputs& in);

/// Aggregates RecoverySlo verdicts across a chaos matrix into CDFs.
class SloAccumulator {
 public:
  SloAccumulator();

  void add(const std::string& case_name, const RecoverySlo& slo);

  [[nodiscard]] std::uint64_t cases() const { return cases_; }
  [[nodiscard]] std::uint64_t triggered() const { return triggered_; }
  [[nodiscard]] std::uint64_t recovered() const { return recovered_; }
  [[nodiscard]] std::uint64_t unrecovered() const {
    return triggered_ - recovered_;
  }
  [[nodiscard]] const Histogram& detect_ms() const { return detect_ms_; }
  [[nodiscard]] const Histogram& recover_ms() const { return recover_ms_; }
  [[nodiscard]] const Histogram& frames_lost() const { return frames_lost_; }
  [[nodiscard]] const Histogram& p95_ratio() const { return p95_ratio_; }

  /// Per-case rows, in insertion order (matrix grid order).
  struct Row {
    std::string name;
    RecoverySlo slo;
  };
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  std::uint64_t cases_ = 0;
  std::uint64_t triggered_ = 0;
  std::uint64_t recovered_ = 0;
  Histogram detect_ms_;
  Histogram recover_ms_;
  Histogram frames_lost_;
  Histogram p95_ratio_;
  std::vector<Row> rows_;
};

/// Human-readable recovery-SLO report: per-case table plus aggregate
/// detect/recover distribution summaries.
void write_slo_report_text(const SloAccumulator& a, std::ostream& out);

}  // namespace zhuge::obs
