#pragma once
// Shared helpers for the figure/table reproduction benches. Each bench is
// a standalone binary that prints the same rows/series the paper's figure
// reports; EXPERIMENTS.md records the mapping. Every bench accepts
// `--trace out.json` / `--metrics out.json` (see ObsSession below).

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "app/scenario.hpp"
#include "app/spec.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/tracer.hpp"
#include "trace/synthetic.hpp"

namespace zhuge::bench {

using app::ApMode;
using app::frame_rate_fps;
using app::MultiStationResult;
using app::QdiscKind;
using app::ScenarioSpec;
using app::SpecFlowKind;
using sim::Duration;
using sim::TimePoint;

/// The five wireless trace classes evaluated in §7.3.
inline const std::vector<trace::TraceKind> kPaperTraces = {
    trace::TraceKind::kRestaurantWifi, trace::TraceKind::kOfficeWifi,
    trace::TraceKind::kIndoorMixed45G, trace::TraceKind::kCity4G,
    trace::TraceKind::kCity5G};

/// The one topology every figure runs on (§7.2 setup): a `kind` flow of
/// 1080p24 video averaging ~2 Mbps from one server, 20 ms WAN each way, to
/// one MCS-7 Wi-Fi station behind the AP; 5 s warmup, flow-0 series on.
/// The flow asks for AP optimisation, which takes effect under any mode
/// but "none". Figures then shape the station's channel and queue.
inline ScenarioSpec figure_spec(double duration_s, std::uint64_t seed,
                                SpecFlowKind kind = SpecFlowKind::kRtpGcc,
                                ApMode mode = ApMode::kNone,
                                QdiscKind qdisc = QdiscKind::kFifo) {
  ScenarioSpec spec;
  spec.name = "figure";
  spec.duration_s = duration_s;
  spec.warmup_s = 5.0;
  spec.seed = seed;
  spec.ap_mode = mode;
  spec.series = true;
  app::StationGroupSpec station;
  station.qdisc = qdisc;
  spec.stations = {station};
  app::SpecFlow flow;
  flow.kind = kind;
  flow.zhuge = true;
  flow.fps = 24.0;
  spec.flows = {flow};
  return spec;
}

/// Trace-driven evaluation (§7.3): the station's downlink follows a
/// synthetic trace of `kind` drawn from `trace_seed`. Cellular classes
/// ride the cellular link model, Wi-Fi classes the AMPDU one.
inline ScenarioSpec trace_spec(trace::TraceKind kind, std::uint64_t trace_seed,
                               double duration_s, std::uint64_t seed,
                               SpecFlowKind flow = SpecFlowKind::kRtpGcc,
                               ApMode mode = ApMode::kNone,
                               QdiscKind qdisc = QdiscKind::kFifo) {
  ScenarioSpec spec = figure_spec(duration_s, seed, flow, mode, qdisc);
  app::StationGroupSpec& st = spec.stations.front();
  st.trace_class = kind;
  st.trace_seed = trace_seed;
  st.link = kind == trace::TraceKind::kRestaurantWifi ||
                    kind == trace::TraceKind::kOfficeWifi
                ? app::LinkKind::kWifi
                : app::LinkKind::kCellular;
  return spec;
}

/// ABW-drop microbenchmark (Fig. 4/14/15): 30 Mbps dropping to 30/k at
/// 20 s of a 40 s run, with a video cap high enough for the CCA to fill
/// the link and an NS-3-style 100-packet bottleneck buffer (the
/// microbenchmarks measure reaction speed; a deeply bufferbloated queue
/// would bury the control-loop differences under multi-second drains).
inline constexpr double kDropAtS = 20.0;
inline constexpr double kDropRunS = 40.0;
inline ScenarioSpec drop_spec(double k, std::uint64_t seed,
                              SpecFlowKind flow = SpecFlowKind::kRtpGcc,
                              ApMode mode = ApMode::kNone,
                              QdiscKind qdisc = QdiscKind::kFifo) {
  ScenarioSpec spec = figure_spec(kDropRunS, seed, flow, mode, qdisc);
  app::StationGroupSpec& st = spec.stations.front();
  st.rate_trace = {30.0, 30.0 / k, kDropAtS};
  st.queue_limit_bytes = 100 * 1500;
  spec.flows.front().max_bitrate_mbps = 40.0;
  return spec;
}

struct TailMetrics {
  double rtt_gt_200 = 0.0;   ///< P(network RTT > 200 ms)
  double fd_gt_400 = 0.0;    ///< P(frame delay > 400 ms)
  double fps_lt_10 = 0.0;    ///< P(per-second frame rate < 10)
  double goodput_mbps = 0.0;
  double p99_rtt_ms = 0.0;
};

/// Flow 0's tail metrics from a run of `spec`.
inline TailMetrics tail_metrics(const ScenarioSpec& spec,
                                const MultiStationResult& r) {
  TailMetrics m;
  const auto& f = r.flows.front();
  m.rtt_gt_200 = f.network_rtt_ms.ratio_above(200.0);
  m.fd_gt_400 = f.frame_delay_ms.ratio_above(400.0);
  m.fps_lt_10 =
      frame_rate_fps(r, spec.warmup_s, spec.duration_s).ratio_below(10.0);
  m.goodput_mbps = f.goodput_bps / 1e6;
  m.p99_rtt_ms = f.network_rtt_ms.quantile(0.99);
  return m;
}

/// Run `spec_for(seed)` for seeds 1..seeds and average flow 0's tails.
template <typename SpecForSeed>
TailMetrics averaged_tails(SpecForSeed&& spec_for, int seeds) {
  TailMetrics sum;
  for (int s = 1; s <= seeds; ++s) {
    const ScenarioSpec spec = spec_for(s);
    const TailMetrics m = tail_metrics(spec, app::run_multi_station(spec));
    sum.rtt_gt_200 += m.rtt_gt_200;
    sum.fd_gt_400 += m.fd_gt_400;
    sum.fps_lt_10 += m.fps_lt_10;
    sum.goodput_mbps += m.goodput_mbps;
    sum.p99_rtt_ms += m.p99_rtt_ms;
  }
  const double n = seeds;
  sum.rtt_gt_200 /= n;
  sum.fd_gt_400 /= n;
  sum.fps_lt_10 /= n;
  sum.goodput_mbps /= n;
  sum.p99_rtt_ms /= n;
  return sum;
}

/// Degradation durations after a bandwidth drop at `from_s` (Fig. 4/14-17).
struct Degradation {
  double rtt_secs = 0.0;   ///< time with RTT > 200 ms
  double fd_secs = 0.0;    ///< time with frame delay > 400 ms
  double fps_secs = 0.0;   ///< time with frame rate < 10 fps
};

inline Degradation degradation_after(const MultiStationResult& r,
                                     double from_s, double to_s) {
  Degradation d;
  const TimePoint t0 = TimePoint::zero() + Duration::from_seconds(from_s);
  const TimePoint t1 = TimePoint::zero() + Duration::from_seconds(to_s);
  d.rtt_secs = r.series.rtt_ms.time_above(200.0, t0, t1).to_seconds();
  d.fd_secs = r.series.frame_delay_ms.time_above(400.0, t0, t1).to_seconds();
  // Frame rate < 10 fps: seconds without at least 10 decoded frames.
  const stats::Distribution fps = frame_rate_fps(r, from_s, to_s);
  d.fps_secs = std::round(static_cast<double>(fps.count()) * fps.ratio_below(10.0));
  return d;
}

/// Print a log-spaced 1-CDF column (the paper's Fig. 2/13 axes).
inline void print_ccdf(const char* label, const stats::Distribution& d,
                       const std::vector<double>& thresholds) {
  std::printf("  %-24s", label);
  for (double t : thresholds) std::printf(" %8.4f%%", 100.0 * d.ratio_above(t));
  std::printf("\n");
}

inline const char* mode_name(ApMode m) {
  switch (m) {
    case ApMode::kNone: return "none";
    case ApMode::kZhuge: return "Zhuge";
    case ApMode::kFastAck: return "FastAck";
    case ApMode::kAbc: return "ABC";
  }
  return "?";
}

/// Observability session for a bench binary: the shared CLI session from
/// obs/session.hpp (benches, examples, and tools all use the same one, so
/// every entrypoint handles --trace/--metrics identically).
using ObsSession = obs::ObsSession;

}  // namespace zhuge::bench
