#pragma once
// Synthetic ABW-trace generators for the paper's five wireless traces plus
// a stable Ethernet reference and ABC's legacy low-bandwidth cellular.
//
// Substitution note (see DESIGN.md §2): the real traces are not published,
// but the evaluation depends on the *distribution of sudden ABW
// reductions* (paper Fig. 3(b): P[reduction > 10x over 200 ms] between
// 0.6 % and 7.3 % for wireless, < 0.1 % for wired) and on the mean rates
// the paper states (21 / 27 Mbps for the two WiFi traces). Each generator
// is an AR(1) log-rate process (steady fluctuation) overlaid with a deep-
// fade process (Pareto depth, geometric duration) calibrated per class.

#include <cstdint>

#include "sim/random.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace zhuge::trace {

/// The paper's trace classes.
enum class TraceKind {
  kRestaurantWifi,   ///< W1: 2.4 GHz public WiFi, crowded, 21 Mbps mean
  kOfficeWifi,       ///< W2: 5 GHz office WiFi, 27 Mbps mean
  kIndoorMixed45G,   ///< C1: indoor mixed 4G/5G, bursty handovers
  kCity4G,           ///< C2: metropolitan 4G
  kCity5G,           ///< C3: metropolitan 5G (mmWave blockage fades)
  kEthernet,         ///< wired reference, nearly constant
  kLegacyCellular,   ///< ABC-paper-era (~10-year-old) cellular, ~2 Mbps
};

/// Parameters of the generator; exposed so tests can sweep them.
struct SyntheticParams {
  double mean_bps = 25e6;     ///< long-run mean rate
  double ar_phi = 0.9;        ///< AR(1) persistence of the log-rate
  double ar_sigma = 0.10;     ///< per-step innovation std-dev (log domain)
  double fade_prob = 0.004;   ///< per-step probability of entering a fade
  double fade_depth_min = 4.0;    ///< Pareto scale of the fade depth
  double fade_depth_alpha = 1.3;  ///< Pareto shape (smaller = heavier tail)
  double fade_depth_cap = 60.0;   ///< clamp on the fade depth (Fig. 3b tops ~50x)
  double fade_mean_steps = 6.0;   ///< geometric mean fade length (steps)
  double floor_ratio = 0.02;      ///< rate never drops below mean*floor_ratio
  double ceil_ratio = 2.5;        ///< nor rises above mean*ceil_ratio
  sim::Duration step = sim::Duration::millis(50);
};

/// Canonical parameters for a trace class.
[[nodiscard]] SyntheticParams params_for(TraceKind kind);

/// Each kind's short name, indexed by its value.
inline constexpr const char* kTraceKindNames[] = {"W1", "W2", "C1", "C2",
                                                  "C3", "ETH", "ABC"};

/// Human-readable short name ("W1", "C3", ...).
[[nodiscard]] const char* short_name(TraceKind kind);
/// Descriptive name ("Restaurant WiFi", ...).
[[nodiscard]] const char* long_name(TraceKind kind);

/// Generate a trace of the given class. Deterministic in (kind, seed).
[[nodiscard]] Trace make_trace(TraceKind kind, std::uint64_t seed, sim::Duration duration);

/// Generate from explicit parameters (for sweeps/tests).
[[nodiscard]] Trace make_trace(const SyntheticParams& params, std::uint64_t seed,
                               sim::Duration duration, const std::string& name);

/// A constant-rate trace (unit tests and controlled microbenchmarks).
[[nodiscard]] Trace constant_trace(double rate_bps, sim::Duration duration,
                                   const std::string& name = "const");

/// A single-step trace: `before_bps` until `at`, then `after_bps`
/// (the Fig. 4/14/15 bandwidth-drop microbenchmark shape).
[[nodiscard]] Trace step_trace(double before_bps, double after_bps, sim::Duration at,
                               sim::Duration duration, const std::string& name = "step");

/// Fig. 3(b) analysis: distribution of the ABW reduction ratio between
/// consecutive 200 ms windows.
struct AbwReductionStats {
  /// Fraction of consecutive-window pairs whose reduction ratio exceeds k.
  [[nodiscard]] double fraction_above(double k) const;
  std::vector<double> reduction_ratios;  ///< all ratios (>= 1 means a drop)
};

/// Compute reduction statistics with the paper's 200 ms ABW window.
[[nodiscard]] AbwReductionStats abw_reduction_stats(
    const Trace& trace, sim::Duration window = sim::Duration::millis(200));

}  // namespace zhuge::trace
