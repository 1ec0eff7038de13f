#include "trace/synthetic.hpp"

#include "sim/substreams.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace zhuge::trace {

SyntheticParams params_for(TraceKind kind) {
  SyntheticParams p;
  switch (kind) {
    case TraceKind::kRestaurantWifi:  // W1: crowded 2.4 GHz, 21 Mbps mean
      p.mean_bps = 21e6;
      p.ar_sigma = 0.16;
      p.fade_prob = 0.016;
      p.fade_depth_min = 5.0;
      p.fade_depth_alpha = 1.2;
      p.fade_mean_steps = 9.0;
      p.floor_ratio = 0.012;
      break;
    case TraceKind::kOfficeWifi:  // W2: calmer 5 GHz, 27 Mbps mean
      p.mean_bps = 27e6;
      p.ar_sigma = 0.10;
      p.fade_prob = 0.005;
      p.fade_depth_min = 4.0;
      p.fade_depth_alpha = 1.5;
      p.fade_mean_steps = 7.0;
      p.floor_ratio = 0.012;
      break;
    case TraceKind::kIndoorMixed45G:  // C1: handovers between 4G and 5G
      p.mean_bps = 60e6;
      p.ar_sigma = 0.20;
      p.fade_prob = 0.022;
      p.fade_depth_min = 8.0;
      p.fade_depth_alpha = 1.1;
      p.fade_mean_steps = 10.0;
      p.floor_ratio = 0.004;
      break;
    case TraceKind::kCity4G:  // C2
      p.mean_bps = 40e6;
      p.ar_sigma = 0.14;
      p.fade_prob = 0.008;
      p.fade_depth_min = 6.0;
      p.fade_depth_alpha = 1.4;
      p.fade_mean_steps = 8.0;
      p.floor_ratio = 0.006;
      break;
    case TraceKind::kCity5G:  // C3: mmWave blockage -> deep, abrupt fades
      p.mean_bps = 120e6;
      p.ar_sigma = 0.18;
      p.fade_prob = 0.014;
      p.fade_depth_min = 8.0;
      p.fade_depth_alpha = 1.15;
      p.fade_mean_steps = 9.0;
      p.floor_ratio = 0.003;
      break;
    case TraceKind::kEthernet:  // wired: tiny jitter, no fades
      p.mean_bps = 100e6;
      p.ar_sigma = 0.01;
      p.fade_prob = 0.0;
      break;
    case TraceKind::kLegacyCellular:  // ABC-era cellular: ~2.5 Mbps mean
      p.mean_bps = 2.5e6;
      p.ar_sigma = 0.25;
      p.fade_prob = 0.012;
      p.fade_depth_min = 4.0;
      p.fade_depth_alpha = 1.3;
      p.fade_mean_steps = 5.0;
      break;
  }
  return p;
}

const char* short_name(TraceKind kind) {
  return kTraceKindNames[static_cast<std::size_t>(kind)];
}

const char* long_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kRestaurantWifi: return "Restaurant WiFi (2.4GHz)";
    case TraceKind::kOfficeWifi: return "Office WiFi (5GHz)";
    case TraceKind::kIndoorMixed45G: return "Indoor Mixed 4G/5G";
    case TraceKind::kCity4G: return "City 4G";
    case TraceKind::kCity5G: return "City 5G";
    case TraceKind::kEthernet: return "Ethernet";
    case TraceKind::kLegacyCellular: return "Legacy cellular (ABC traces)";
  }
  return "?";
}

Trace make_trace(const SyntheticParams& p, std::uint64_t seed,
                 sim::Duration duration, const std::string& name) {
  sim::Rng rng(seed, sim::substreams::kSyntheticTrace);
  std::vector<Trace::Sample> samples;
  const auto steps = static_cast<std::size_t>(
      duration.count_ns() / p.step.count_ns());
  samples.reserve(steps);

  double x = 0.0;  // AR(1) state in log domain
  // Stationary-variance correction so mean(exp(x)) ~= 1.
  const double stat_var =
      p.ar_sigma * p.ar_sigma / std::max(1e-9, 1.0 - p.ar_phi * p.ar_phi);
  int fade_steps_left = 0;
  double fade_depth = 1.0;

  for (std::size_t i = 0; i < steps; ++i) {
    x = p.ar_phi * x + rng.normal(0.0, p.ar_sigma);
    double rate = p.mean_bps * std::exp(x - stat_var / 2.0);

    if (fade_steps_left > 0) {
      --fade_steps_left;
      rate /= fade_depth;
    } else if (p.fade_prob > 0.0 && rng.chance(p.fade_prob)) {
      fade_depth = std::min(p.fade_depth_cap,
                            rng.pareto(p.fade_depth_min, p.fade_depth_alpha));
      // Geometric duration with the configured mean (at least 1 step).
      fade_steps_left = 1;
      while (rng.uniform() > 1.0 / p.fade_mean_steps &&
             fade_steps_left < 200) {
        ++fade_steps_left;
      }
      rate /= fade_depth;
    }

    rate = std::clamp(rate, p.mean_bps * p.floor_ratio, p.mean_bps * p.ceil_ratio);
    samples.push_back({TimePoint{static_cast<std::int64_t>(i) * p.step.count_ns()}, rate});
  }
  return Trace{name, std::move(samples)};
}

Trace make_trace(TraceKind kind, std::uint64_t seed, sim::Duration duration) {
  return make_trace(params_for(kind), seed, duration, short_name(kind));
}

Trace constant_trace(double rate_bps, sim::Duration duration, const std::string& name) {
  std::vector<Trace::Sample> s;
  s.push_back({TimePoint::zero(), rate_bps});
  s.push_back({TimePoint{duration.count_ns()}, rate_bps});
  return Trace{name, std::move(s)};
}

Trace step_trace(double before_bps, double after_bps, sim::Duration at,
                 sim::Duration duration, const std::string& name) {
  std::vector<Trace::Sample> s;
  s.push_back({TimePoint::zero(), before_bps});
  s.push_back({TimePoint{at.count_ns()}, after_bps});
  s.push_back({TimePoint{duration.count_ns()}, after_bps});
  return Trace{name, std::move(s)};
}

double AbwReductionStats::fraction_above(double k) const {
  if (reduction_ratios.empty()) return 0.0;
  std::size_t n = 0;
  for (double r : reduction_ratios) {
    if (r > k) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(reduction_ratios.size());
}

AbwReductionStats abw_reduction_stats(const Trace& trace, sim::Duration window) {
  AbwReductionStats out;
  if (trace.empty()) return out;
  const Duration span = trace.span();
  if (span <= window * 2) return out;

  // Average ABW per window by sampling the piecewise-constant trace at a
  // fine grain (the generator step is <= the window).
  const Duration grain = Duration::millis(10);
  std::vector<double> windows;
  for (TimePoint w0 = TimePoint::zero(); w0 + window <= TimePoint::zero() + span;
       w0 += window) {
    double sum = 0.0;
    int n = 0;
    for (TimePoint t = w0; t < w0 + window; t += grain) {
      sum += trace.rate_at(t);
      ++n;
    }
    windows.push_back(sum / std::max(1, n));
  }
  for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
    if (windows[i + 1] <= 0.0) continue;
    const double ratio = windows[i] / windows[i + 1];
    if (ratio >= 1.0) out.reduction_ratios.push_back(ratio);
  }
  return out;
}

}  // namespace zhuge::trace
