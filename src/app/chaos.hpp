#pragma once
// Chaos harness: one list of named fault scenarios over the end-to-end
// topology plus the recovery verdicts the robustness claims rest on.
//
// Each ChaosCase is one adverse condition injected into an otherwise
// healthy run. A case passes when, after the fault clears:
//   * flow 0's goodput is back within tolerance of its pre-fault level,
//   * no feedback packet was stranded inside Zhuge state, and
//   * no runtime invariant (obs/invariants.hpp) was violated — checked
//     whenever the setting is on (chaos_run always turns it on).
// Cases that starve the uplink additionally assert the watchdog actually
// failed open (a watchdog that never fires is indistinguishable from no
// watchdog). Lives in src/app (not src/fault) because verdicts are
// computed from the run's MultiStationResult.

#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "fault/fault.hpp"
#include "obs/attrib.hpp"
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

  /// The run's per-stage latency attribution: empty unless attribution
  /// was enabled (obs::set_attrib_enabled) when the case ran.
  obs::Attribution attrib;
};

/// Common healthy baseline every case perturbs and the goldens share:
/// RTP/GCC 1080p24 video through a Zhuge AP to one steady MCS-7 Wi-Fi
/// station, 25 s run with a 5 s warmup, flow-0 series on (the verdicts
/// read them). MCS mode (no external trace) keeps the suite self-contained.
[[nodiscard]] ScenarioSpec chaos_base(std::uint64_t seed);

/// The chaos suite, in one fixed order. First the seven incidents, one
/// per fault class the subsystem models, each bounded in a 25-35 s run
/// (fault at 10-11 s, cleared well before the end): downlink_blackout,
/// uplink_starvation, wan_burst_loss, dup_reorder, uplink_fade,
/// ap_restart, clock_jump. Then the 24-case feedback-path matrix: four
/// fault kinds (total feedback loss, duplication, reordering, delay
/// spikes, split across the uplink-RTCP and AP-rewritten-feedback
/// boundaries so both are exercised) x three sender CCAs (RTP/GCC,
/// TCP/CUBIC, TCP/BBR) x two channel profiles (steady: MCS 7 + FIFO;
/// stressed: MCS 3 + CoDel), named "<fault>/<cca>/<profile>" in that
/// nesting order. Deterministic in `seed`; a name filter keeps the
/// relative order, so any subset chains to the same fingerprint wherever
/// it is selected from.
[[nodiscard]] std::vector<ChaosCase> chaos_suite(std::uint64_t seed);

/// Run one case and judge it. The verdict carries the run's latency
/// attribution, which records only when obs::set_attrib_enabled is on.
[[nodiscard]] ChaosVerdict run_chaos_case(const ChaosCase& c);

/// One-line human-readable verdict summary.
[[nodiscard]] std::string format_verdict(const ChaosVerdict& v);

/// Everything one suite run produces. `fingerprint` chains the per-case
/// verdict fingerprints in case order, so two runs are equal iff every
/// verdict (including its SLO numbers) is bit-identical: the
/// serial-vs-parallel identity the tests assert.
struct ChaosSuiteResult {
  std::vector<ChaosVerdict> verdicts;  ///< case order, not completion order
  obs::SloAccumulator slo;             ///< per-case rows + aggregate CDFs
  obs::Attribution attrib;             ///< every verdict's, merged in order
  std::uint64_t fingerprint = 0;
  int failed = 0;
};

/// FNV-1a64 over every numeric field of the verdict (goodputs, counters,
/// the whole RecoverySlo) plus the case name. Complements the result
/// fingerprint, which leaves the ladder log out as observability output;
/// the SLO numbers derived from it are covered here. The attribution,
/// observability output too, is left out.
[[nodiscard]] std::uint64_t chaos_verdict_fingerprint(const ChaosVerdict& v);

/// Run `cases` on `threads` workers (app::run_indexed_pool; 0 or 1 runs
/// them serially on the calling thread). Runtime invariants are checked
/// whenever the setting is on: each verdict counts its own run's
/// violations, and every case's checker is merged into the caller's obs
/// context in case order. Verdicts, SLO rows and the merged attribution
/// are aggregated in case order, so they are bit-identical for any thread
/// count.
[[nodiscard]] ChaosSuiteResult run_chaos_suite(
    const std::vector<ChaosCase>& cases, unsigned threads);

}  // namespace zhuge::app
