#pragma once
// Chaos harness: named fault scenarios over the end-to-end topology plus
// the recovery verdicts the robustness claims rest on.
//
// Each ChaosCase is one adverse condition injected into an otherwise
// healthy run. A case passes when, after the fault clears:
//   * flow 0's goodput is back within tolerance of its pre-fault level,
//   * no feedback packet was stranded inside Zhuge state, and
//   * no runtime invariant (obs/invariants.hpp) was violated — checked
//     whenever the setting is on, in a serial run or on the pool alike.
// Cases that starve the uplink additionally assert the watchdog actually
// failed open (a watchdog that never fires is indistinguishable from no
// watchdog). Lives in src/app (not src/fault) because verdicts are
// computed from the run's MultiStationResult.

#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "fault/fault.hpp"
#include "obs/slo.hpp"

namespace zhuge::app {

/// One named fault scenario.
struct ChaosCase {
  std::string name;
  ScenarioSpec spec;            ///< includes spec.faults
  sim::TimePoint fault_start;   ///< recovery windows are derived from these
  sim::TimePoint fault_end;
  bool expect_degrade = false;  ///< the watchdog must fire during this case
  double min_recovery_ratio = 0.9;  ///< post/pre goodput floor
  /// How long after fault_end before goodput is judged: the CCA needs time
  /// to ramp back (a total feedback blackout sends GCC to its floor).
  sim::Duration post_settle = sim::Duration::seconds(2);
};

/// Outcome of one case, with everything a CI log needs to diagnose.
struct ChaosVerdict {
  std::string name;
  bool passed = false;
  std::string failure;  ///< first failed criterion, empty when passed

  double pre_fault_goodput_bps = 0.0;
  double post_fault_goodput_bps = 0.0;
  double recovery_ratio = 0.0;
  std::uint64_t stranded_acks = 0;
  std::uint64_t invariant_violations = 0;
  std::uint64_t degrades = 0;
  std::uint64_t reactivates = 0;
  std::uint64_t flushed_acks = 0;
  std::uint64_t fault_drops = 0;

  /// Recovery-SLO accounting from the run's degradation-ladder log
  /// (obs::compute_recovery_slo): time-to-detect, time-to-recover,
  /// per-level dwell, frames lost while degraded, post-recovery tail.
  obs::RecoverySlo slo{};
};

/// Common healthy baseline every case perturbs and the goldens share:
/// RTP/GCC 1080p24 video through a Zhuge AP to one steady MCS-7 Wi-Fi
/// station, 25 s run with a 5 s warmup, flow-0 series on (the verdicts
/// read them). MCS mode (no external trace) keeps the suite self-contained.
[[nodiscard]] ScenarioSpec chaos_base(std::uint64_t seed);

/// The standard suite: every fault class the subsystem models, each as a
/// bounded incident in a 25 s run (fault at 10 s, cleared well before the
/// end). Deterministic in `seed`.
[[nodiscard]] std::vector<ChaosCase> standard_chaos_suite(std::uint64_t seed);

/// Run one case and judge it. When `attrib_out` is non-null the run's
/// per-stage latency attribution is merged into it (enable the switch via
/// obs::set_attrib_enabled first, or the run records nothing) — chaos_run
/// uses this to build a suite-wide latency-budget report.
[[nodiscard]] ChaosVerdict run_chaos_case(const ChaosCase& c,
                                          obs::Attribution* attrib_out = nullptr);

/// One-line human-readable verdict summary.
[[nodiscard]] std::string format_verdict(const ChaosVerdict& v);

/// One machine-readable verdict as a single-line JSON object (chaos_run
/// --json): pass/fail, goodput numbers, robustness counters, and the full
/// recovery SLO.
[[nodiscard]] std::string verdict_json(const ChaosVerdict& v);

// ---------------------------------------------------------------------------
// Chaos matrix: feedback-path fault kinds x sender CCAs x channel profiles
// ---------------------------------------------------------------------------

/// The recovery-SLO chaos matrix: four feedback-path fault kinds (total
/// feedback loss, duplication, reordering, delay spikes — split across the
/// uplink-RTCP and AP-rewritten-feedback boundaries so both are exercised)
/// crossed with three sender CCAs (RTP/GCC, TCP/CUBIC, TCP/BBR) and two
/// channel profiles (steady: MCS 7 + FIFO; stressed: MCS 3 + CoDel).
/// 4 x 3 x 2 = 24 cases named "<fault>/<cca>/<profile>", deterministic in
/// `seed`.
[[nodiscard]] std::vector<ChaosCase> chaos_matrix(std::uint64_t seed);

/// Everything one matrix run produces. `fingerprint` chains the per-case
/// verdict fingerprints in grid order, so two matrix runs are equal iff
/// every verdict (including its SLO numbers) is bit-identical — the
/// serial-vs-parallel identity the tests assert.
struct ChaosMatrixResult {
  std::vector<ChaosVerdict> verdicts;  ///< grid order, not completion order
  obs::SloAccumulator slo;             ///< per-case rows + aggregate CDFs
  std::uint64_t fingerprint = 0;
  int failed = 0;
};

/// FNV-1a64 over every numeric field of the verdict (goodputs, counters,
/// the whole RecoverySlo) plus the case name. Complements the result
/// fingerprint, which leaves the ladder log out as observability output;
/// the SLO numbers derived from it are covered here.
[[nodiscard]] std::uint64_t chaos_verdict_fingerprint(const ChaosVerdict& v);

/// Run `cases` on `threads` workers (app::run_indexed_pool). Runtime
/// invariants are checked whenever the setting is on, inside the pool as
/// in a serial run: each case's verdict counts its own violations, and
/// the merged checker lands in the caller's obs context in grid order.
/// Verdicts land in grid order and are bit-identical for any thread count.
[[nodiscard]] ChaosMatrixResult run_chaos_matrix(
    const std::vector<ChaosCase>& cases, unsigned threads);

}  // namespace zhuge::app
