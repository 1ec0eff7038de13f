// figures — every paper figure and table this repository reproduces, in
// one binary; EXPERIMENTS.md maps each to the paper.
//
//   figures [NAME...] [--trace FILE] [--metrics FILE] [--attrib]
//
// A figure is one entry of figure_table(): the grid of ScenarioSpecs it
// runs, a reduce step that turns one run's MultiStationResult into the
// numbers the figure prints, and a print step over those rows in grid
// order. Every grid runs on app::run_indexed_pool with one worker per
// hardware thread, and the reduce runs inside the worker, so no result
// outlives its pool index. Each run is deterministic in its spec, so the
// output does not depend on the worker count. Figs. 3 and 7 run no
// scenario and keep their own code. With no NAME every figure runs, in
// paper order. The flags are ObsSession's (obs/session.hpp). An unknown
// name or flag, or a flag missing its value, prints the figure names and
// exits 2, as does a --trace/--metrics file that cannot be written;
// violations held by the merged runtime invariant checker are printed and
// exit 1.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "app/scenario.hpp"
#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "core/fortune_teller.hpp"
#include "obs/invariants.hpp"
#include "obs/session.hpp"
#include "queue/fifo.hpp"
#include "stats/distribution.hpp"
#include "trace/synthetic.hpp"
#include "wireless/channel.hpp"
#include "wireless/medium.hpp"
#include "wireless/wifi_link.hpp"

namespace zhuge::bench {
namespace {

using app::ApMode;
using app::frame_rate_fps;
using app::MultiStationResult;
using app::QdiscKind;
using app::ScenarioSpec;
using app::SpecFlowKind;
using sim::Duration;
using sim::TimePoint;

// The figure topology and its line-ups.

/// The five wireless trace classes evaluated in §7.3.
constexpr std::array<trace::TraceKind, 5> kPaperTraces = {
    trace::TraceKind::kRestaurantWifi, trace::TraceKind::kOfficeWifi,
    trace::TraceKind::kIndoorMixed45G, trace::TraceKind::kCity4G,
    trace::TraceKind::kCity5G};

constexpr double kWarmupS = 5.0;

/// One line-up entry: a row or column label and the flow, AP mode and
/// qdisc it runs.
struct Mode {
  const char* label = "";
  SpecFlowKind flow = SpecFlowKind::kRtpGcc;
  ApMode ap = ApMode::kNone;
  QdiscKind qdisc = QdiscKind::kFifo;
  /// Fig. 15's last rows: the AP's default 450 KB queue and the default
  /// video cap, the bufferbloat regime the paper's motivation lives in.
  bool bufferbloat = false;
};

const std::vector<Mode> kRtpModes = {
    {"Gcc+FIFO", SpecFlowKind::kRtpGcc, ApMode::kNone, QdiscKind::kFifo},
    {"Gcc+CoDel", SpecFlowKind::kRtpGcc, ApMode::kNone, QdiscKind::kCoDel},
    {"Gcc+Zhuge", SpecFlowKind::kRtpGcc, ApMode::kZhuge, QdiscKind::kFifo},
};
const std::vector<Mode> kTcpModes = {
    {"Copa", SpecFlowKind::kTcpCopa, ApMode::kNone, QdiscKind::kFifo},
    {"Copa+FastAck", SpecFlowKind::kTcpCopa, ApMode::kFastAck, QdiscKind::kFifo},
    {"ABC", SpecFlowKind::kTcpAbc, ApMode::kAbc, QdiscKind::kFifo},
    {"Copa+Zhuge", SpecFlowKind::kTcpCopa, ApMode::kZhuge, QdiscKind::kFifo},
};

/// The seeds of the multi-seed figures.
const std::vector<int> kSeeds = {1, 2, 3};

/// The one topology every figure runs on (§7.2 setup): a flow of 1080p24
/// video averaging ~2 Mbps from one server, 20 ms WAN each way, to one
/// MCS-7 Wi-Fi station behind the AP; 5 s warmup, flow-0 series on. The
/// flow asks for AP optimisation, which takes effect under any mode but
/// "none". Figures then shape the station's channel and queue.
ScenarioSpec figure_spec(double duration_s, int seed, const Mode& m = {}) {
  ScenarioSpec spec;
  spec.name = "figure";
  spec.duration_s = duration_s;
  spec.warmup_s = kWarmupS;
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.ap_mode = m.ap;
  spec.series = true;
  app::StationGroupSpec station;
  station.qdisc = m.qdisc;
  spec.stations = {station};
  app::SpecFlow flow;
  flow.kind = m.flow;
  flow.zhuge = true;
  flow.fps = 24.0;
  spec.flows = {flow};
  return spec;
}

/// Trace-driven evaluation (§7.3): the station's downlink follows a
/// synthetic trace of `kind` drawn from `trace_seed`. Cellular classes
/// ride the cellular link model, Wi-Fi classes the AMPDU one.
ScenarioSpec trace_spec(trace::TraceKind kind, std::uint64_t trace_seed,
                        double duration_s, int seed, const Mode& m = {}) {
  ScenarioSpec spec = figure_spec(duration_s, seed, m);
  app::StationGroupSpec& st = spec.stations.front();
  st.trace_class = kind;
  st.trace_seed = trace_seed;
  st.link = kind == trace::TraceKind::kRestaurantWifi ||
                    kind == trace::TraceKind::kOfficeWifi
                ? app::LinkKind::kWifi
                : app::LinkKind::kCellular;
  return spec;
}

/// Seed `s` of a 150 s trace-driven run (Figs. 11/12, Table 3, the
/// ablations): trace seed 13 s, scenario seed s.
ScenarioSpec seeded_trace_spec(trace::TraceKind kind, const Mode& m, int s) {
  return trace_spec(kind, 13u * static_cast<unsigned>(s), 150.0, s, m);
}

/// ABW-drop microbenchmark (Fig. 4/14/15): 30 Mbps dropping to 30/k at
/// 20 s of a 40 s run, with a video cap high enough for the CCA to fill
/// the link and an NS-3-style 100-packet bottleneck buffer (the
/// microbenchmarks measure reaction speed; a deeply bufferbloated queue
/// would bury the control-loop differences under multi-second drains).
constexpr double kDropAtS = 20.0;
constexpr double kDropRunS = 40.0;
const std::vector<double> kDropKs = {2, 5, 10, 20, 50};
ScenarioSpec drop_spec(const Mode& m, double k, int seed) {
  ScenarioSpec spec = figure_spec(kDropRunS, seed, m);
  app::StationGroupSpec& st = spec.stations.front();
  st.rate_trace = {30.0, 30.0 / k, kDropAtS};
  st.queue_limit_bytes = 100 * 1500;
  spec.flows.front().max_bitrate_mbps = 40.0;
  if (m.bufferbloat) {
    st.queue_limit_bytes = app::StationGroupSpec{}.queue_limit_bytes;
    spec.flows.front().max_bitrate_mbps = app::SpecFlow{}.max_bitrate_mbps;
  }
  return spec;
}

/// The grid rows x cols x seeds, seed innermost: `make(row, col, seed)`.
template <typename Rows, typename Cols, typename Make>
std::vector<ScenarioSpec> cross(const Rows& rows, const Cols& cols,
                                const std::vector<int>& seeds, Make make) {
  std::vector<ScenarioSpec> specs;
  for (const auto& r : rows) {
    for (const auto& c : cols) {
      for (const int s : seeds) specs.push_back(make(r, c, s));
    }
  }
  return specs;
}

// Reduce steps and their rows.

struct TailMetrics {
  double rtt_gt_200 = 0.0;   ///< P(network RTT > 200 ms)
  double fd_gt_400 = 0.0;    ///< P(frame delay > 400 ms)
  double fps_lt_10 = 0.0;    ///< P(per-second frame rate < 10)
  double goodput_mbps = 0.0;
};

/// Flow 0's tail metrics from a run of `spec`.
TailMetrics tail_metrics(const ScenarioSpec& spec, const MultiStationResult& r) {
  TailMetrics m;
  const auto& f = r.flows.front();
  m.rtt_gt_200 = f.network_rtt_ms.ratio_above(200.0);
  m.fd_gt_400 = f.frame_delay_ms.ratio_above(400.0);
  m.fps_lt_10 =
      frame_rate_fps(r, spec.warmup_s, spec.duration_s).ratio_below(10.0);
  m.goodput_mbps = f.goodput_bps / 1e6;
  return m;
}

/// Degradation durations after a bandwidth drop at `from_s` (Fig. 4/14-17).
struct Degradation {
  double rtt_secs = 0.0;   ///< time with RTT > 200 ms
  double fd_secs = 0.0;    ///< time with frame delay > 400 ms
  double fps_secs = 0.0;   ///< time with frame rate < 10 fps
};

Degradation degradation_after(const MultiStationResult& r, double from_s,
                              double to_s) {
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

Degradation drop_degradation(const ScenarioSpec&, const MultiStationResult& r) {
  return degradation_after(r, kDropAtS, kDropRunS);
}

Degradation degradation_after_warmup(const ScenarioSpec& spec,
                                     const MultiStationResult& r) {
  return degradation_after(r, spec.warmup_s, spec.duration_s);
}

constexpr std::array<double TailMetrics::*, 4> kTailFields = {
    &TailMetrics::rtt_gt_200, &TailMetrics::fd_gt_400, &TailMetrics::fps_lt_10,
    &TailMetrics::goodput_mbps};
constexpr std::array<double Degradation::*, 3> kDegradationFields = {
    &Degradation::rtt_secs, &Degradation::fd_secs, &Degradation::fps_secs};

/// The seed means keep the arithmetic the printed digits were first
/// produced with: tail metrics are summed, then divided; durations add
/// each seed's share.
TailMetrics seed_mean(std::span<const TailMetrics> runs) {
  TailMetrics sum;
  for (const auto field : kTailFields) {
    for (const TailMetrics& m : runs) sum.*field += m.*field;
    sum.*field /= static_cast<double>(runs.size());
  }
  return sum;
}

Degradation seed_mean(std::span<const Degradation> runs) {
  Degradation acc;
  for (const auto field : kDegradationFields) {
    for (const Degradation& d : runs) acc.*field += d.*field / static_cast<double>(runs.size());
  }
  return acc;
}

/// The seed mean of every kSeeds.size() consecutive rows.
template <typename Row>
std::vector<Row> seed_means(const std::vector<Row>& rows) {
  std::vector<Row> out;
  for (std::size_t i = 0; i < rows.size(); i += kSeeds.size()) {
    out.push_back(seed_mean(std::span(rows).subspan(i, kSeeds.size())));
  }
  return out;
}

/// Flow 0's 1-CDF points (Figs. 2 and 13): P(RTT > x), P(frame delay > x)
/// and P(frame rate < x) at the figure's thresholds, and two RTT quantiles.
struct TailCurves {
  std::vector<double> rtt_above;
  std::vector<double> fd_above;
  std::vector<double> fps_below;
  double rtt_p50 = 0.0;
  double rtt_p99 = 0.0;
};

auto tail_curves(std::span<const double> rtt_x, std::span<const double> fd_x,
                 std::span<const double> fps_x) {
  return [=](const ScenarioSpec& spec, const MultiStationResult& r) {
    const auto& f = r.flows.front();
    const stats::Distribution fps = frame_rate_fps(r, spec.warmup_s, spec.duration_s);
    TailCurves c;
    for (double x : rtt_x) c.rtt_above.push_back(f.network_rtt_ms.ratio_above(x));
    for (double x : fd_x) c.fd_above.push_back(f.frame_delay_ms.ratio_above(x));
    for (double x : fps_x) c.fps_below.push_back(fps.ratio_below(x));
    c.rtt_p50 = f.network_rtt_ms.quantile(0.5);
    c.rtt_p99 = f.network_rtt_ms.quantile(0.99);
    return c;
  };
}

// Print steps shared by several figures.

/// A 1-CDF row (Figs. 2/13), without its line end.
void print_ccdf(const char* label, const std::vector<double>& ratios) {
  std::printf("  %-24s", label);
  for (double v : ratios) std::printf(" %8.4f%%", 100.0 * v);
}

/// One 1-CDF row per label: `curve` of rows[i] under labels[i].
template <typename Labelled>
void print_ccdf_rows(const Labelled& labels, const TailCurves* rows,
                     std::vector<double> TailCurves::*curve) {
  for (const auto& l : labels) {
    print_ccdf(l.label, (rows++)->*curve);
    std::printf("\n");
  }
}

/// One panel of Figs. 11/12: a row per paper trace, a column per mode
/// (`cells` trace-major), each `metric` as a percentage `width` wide. A
/// column heading is at least one wider than its label.
void print_trace_panel(const char* title, const std::vector<Mode>& modes,
                       int width, const std::vector<TailMetrics>& cells,
                       double TailMetrics::*metric) {
  std::printf("\n%s\n  %-10s", title, "trace");
  for (const Mode& m : modes) {
    std::printf(" %*s", std::max(width, static_cast<int>(std::strlen(m.label)) + 1),
                m.label);
  }
  std::printf("\n");
  const TailMetrics* cell = cells.data();
  for (const auto kind : kPaperTraces) {
    std::printf("  %-10s", trace::short_name(kind));
    for (std::size_t m = 0; m < modes.size(); ++m) {
      std::printf(" %*.3f%%", width - 1, 100.0 * ((cell++)->*metric));
    }
    std::printf("\n");
  }
}

/// Figs. 14-17: a block per degradation metric, a row per mode and a
/// column per x (`cells` mode-major); `column` and `cell` print one
/// heading and one value.
void print_degradation(const std::array<const char*, 3>& headings,
                       const char* corner, int width,
                       const std::vector<Mode>& modes,
                       const std::vector<double>& xs, void (*column)(double),
                       void (*cell)(double),
                       const std::vector<Degradation>& cells) {
  for (std::size_t metric = 0; metric < kDegradationFields.size(); ++metric) {
    std::printf("\n%s\n  %-*s", headings[metric], width, corner);
    for (double x : xs) column(x);
    std::printf("\n");
    for (std::size_t mi = 0; mi < modes.size(); ++mi) {
      std::printf("  %-*s", width, modes[mi].label);
      for (std::size_t xi = 0; xi < xs.size(); ++xi) {
        cell(cells[mi * xs.size() + xi].*kDegradationFields[metric]);
      }
      std::printf("\n");
    }
  }
}

void print_k(double k) { std::printf(" %7.0fx", k); }
void print_count(double n) { std::printf(" %7.0f", n); }
void print_secs(double v) { std::printf(" %8.2f", v); }

constexpr std::array<const char*, 3> kDropHeadings = {
    "(a) NetworkRtt > 200 ms, seconds", "(b) FrameDelay > 400 ms, seconds",
    "(c) FrameRate < 10 fps, seconds"};

// Fig. 2: RTT / frame-delay / frame-rate tails of Ethernet vs WiFi vs 4G
// access for the same GCC/RTP application. The paper's shape: comparable
// medians, but wireless tails are an order of magnitude worse.

struct Access {
  const char* label;
  trace::TraceKind kind;
};
const std::vector<Access> kFig02Access = {
    {"Ethernet", trace::TraceKind::kEthernet},
    {"WiFi (office)", trace::TraceKind::kOfficeWifi},
    {"4G (city)", trace::TraceKind::kCity4G},
};
constexpr std::array<double, 5> kFig02RttMs = {100, 150, 200, 400, 800};
constexpr std::array<double, 5> kFig02FdMs = {100, 200, 400, 800, 1600};
constexpr std::array<double, 3> kFig02Fps = {10, 15, 20};

ScenarioSpec fig02_spec(const Access& a, const Mode& m, int seed) {
  return trace_spec(a.kind, 17, 240.0, seed, m);
}

void print_fig02(const std::vector<TailCurves>& rows) {
  std::printf("=== Fig. 2: access-technology tails (GCC/RTP, 240s per run) ===\n");
  std::printf("\nP(RTT > x ms):\n  %-24s", "access \\ x");
  for (double t : kFig02RttMs) std::printf(" %7.0fms", t);
  std::printf("\n");
  print_ccdf_rows(kFig02Access, rows.data(), &TailCurves::rtt_above);
  std::printf("\nP(frame delay > x ms):\n");
  print_ccdf_rows(kFig02Access, rows.data(), &TailCurves::fd_above);
  std::printf("\nP(frame rate < x fps):\n  %-24s %9s %9s %9s\n", "", "<10fps", "<15fps",
              "<20fps");
  print_ccdf_rows(kFig02Access, rows.data(), &TailCurves::fps_below);
  std::printf("\nP50 RTT (comparable across access types, per the paper):\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("  %-24s %6.1f ms\n", kFig02Access[i].label, rows[i].rtt_p50);
  }
}

// Fig. 3(b): CDF of the ABW reduction ratio between consecutive 200 ms
// windows, per trace class. Paper calibration targets: P[reduction > 10x]
// in 0.6-7.3 % for wireless, < 0.1 % for wired.

void fig03() {
  std::printf("=== Fig. 3(b): ABW reduction ratio distribution (200 ms windows) ===\n");
  const Duration dur = Duration::seconds(1200);
  const std::vector<double> ks = {1.25, 2, 5, 10, 20, 50};

  std::printf("  %-28s", "trace \\ P[reduction > k]");
  for (double k : ks) std::printf("   >%4.2gx ", k);
  std::printf("\n");

  std::vector<trace::TraceKind> kinds(kPaperTraces.begin(), kPaperTraces.end());
  kinds.push_back(trace::TraceKind::kEthernet);
  for (const auto kind : kinds) {
    const auto tr = trace::make_trace(kind, 23, dur);
    const auto stats = trace::abw_reduction_stats(tr);
    std::printf("  %-28s", trace::long_name(kind));
    for (double k : ks) std::printf(" %8.3f%%", 100.0 * stats.fraction_above(k));
    std::printf("\n");
  }
  std::printf("\n(paper: wireless traces show 0.6%%-7.3%% above 10x; wired <0.1%%)\n");
}

// Fig. 4: convergence duration after a wireless bandwidth drop for
// different CCAs (CUBIC/BBR/Copa over TCP, GCC over RTP) with FIFO and
// CoDel queue management. Two y-axes as in the paper:
//  (a) RTT-degradation duration (time with RTT > 200 ms),
//  (b) sending-rate re-convergence duration (time until the CCA's rate
//      settles below 2x the post-drop capacity).

const std::vector<Mode> kFig04Modes = {
    {"Cubic", SpecFlowKind::kTcpCubic, ApMode::kNone, QdiscKind::kFifo},
    {"Cubic", SpecFlowKind::kTcpCubic, ApMode::kNone, QdiscKind::kCoDel},
    {"Bbr", SpecFlowKind::kTcpBbr, ApMode::kNone, QdiscKind::kFifo},
    {"Bbr", SpecFlowKind::kTcpBbr, ApMode::kNone, QdiscKind::kCoDel},
    {"Copa", SpecFlowKind::kTcpCopa, ApMode::kNone, QdiscKind::kFifo},
    {"Copa", SpecFlowKind::kTcpCopa, ApMode::kNone, QdiscKind::kCoDel},
    {"Gcc", SpecFlowKind::kRtpGcc, ApMode::kNone, QdiscKind::kFifo},
    {"Gcc", SpecFlowKind::kRtpGcc, ApMode::kNone, QdiscKind::kCoDel},
};

struct Convergence {
  double rtt_secs = 0.0;
  double rate_secs = 0.0;
};

Convergence convergence(const ScenarioSpec& spec, const MultiStationResult& r) {
  const TimePoint t0 = TimePoint::zero() + Duration::from_seconds(kDropAtS);
  const TimePoint t1 = TimePoint::zero() + Duration::from_seconds(kDropRunS);
  const double post_capacity_bps = spec.stations.front().rate_trace.to_mbps * 1e6;
  return {degradation_after(r, kDropAtS, kDropRunS).rtt_secs,
          (r.series.rate_bps.last_above(2.0 * post_capacity_bps, t0, t1) - t0)
              .to_seconds()};
}

void print_fig04(const std::vector<Convergence>& cells) {
  std::printf("=== Fig. 4: convergence after a bandwidth drop (30 Mbps -> 30/k) ===\n");
  const auto panel = [&](const char* title, double Convergence::*metric) {
    std::printf("\n%s\n  %-14s", title, "algo+qdisc \\ k");
    for (double k : kDropKs) print_k(k);
    std::printf("\n");
    const Convergence* cell = cells.data();
    for (const Mode& m : kFig04Modes) {
      std::printf("  %-6s+%-7s", m.label, m.qdisc == QdiscKind::kFifo ? "FIFO" : "CoDel");
      for (std::size_t ki = 0; ki < kDropKs.size(); ++ki) print_secs((cell++)->*metric);
      std::printf("\n");
    }
  };
  panel("(a) RTT-degradation duration, seconds (RTT > 200 ms)", &Convergence::rtt_secs);
  panel("(b) sending-rate re-convergence duration, seconds"
        " (rate > 2x post-drop capacity)",
        &Convergence::rate_secs);
  std::printf("\n(paper: all end-host CCAs suffer seconds of degradation at"
              " k >= 10; CoDel barely helps delay-based CCAs)\n");
}

// Fig. 7: how qLong and qShort react to an ABW drop at t=5ms. A
// micro-simulation of a single downlink queue: steady 8 Mbps arrivals into
// a 10 Mbps channel that drops to ~0.5 Mbps at t=5 ms. qShort rises
// immediately (head-of-queue wait), qLong takes over once the windowed
// dequeue-rate estimate has decayed — the paper's two-regime argument.

void fig07() {
  std::printf("=== Fig. 7: qLong/qShort reaction to an ABW drop at t=5ms ===\n");
  sim::Simulator simu;
  sim::Rng rng(1);
  // 10 Mbps until 5 ms, then 0.5 Mbps.
  const auto tr = trace::step_trace(10e6, 0.5e6, Duration::millis(5),
                                    Duration::millis(200));
  wireless::Channel channel(&tr);
  wireless::Medium medium(simu, rng);
  queue::DropTailFifo qdisc(-1);
  wireless::WifiLink::Config wcfg;
  wcfg.mpdu_loss_prob = 0.0;
  wcfg.max_agg_packets = 4;
  wcfg.per_frame_overhead = Duration::micros(100);
  wireless::WifiLink link(simu, rng, channel, medium, qdisc, wcfg, [](net::Packet) {});

  core::FortuneTellerConfig fcfg;
  fcfg.window = Duration::millis(20);
  core::FortuneTeller teller(fcfg);
  link.set_dequeue_observer([&](const net::Packet& p, sim::TimePoint now) {
    teller.on_dequeue(p.size_bytes, now, qdisc.byte_count() == 0);
  });

  // 8 Mbps of 1000-byte packets: one per millisecond.
  net::PacketUidSource uids;
  for (int i = 0; i < 200; ++i) {
    simu.schedule_at(sim::TimePoint::zero() + Duration::micros(i * 1000), [&] {
      net::Packet p;
      p.uid = uids.next();
      p.size_bytes = 1000;
      link.offer(std::move(p));
    });
  }

  std::printf("  %6s %10s %10s %10s %10s %10s\n", "t(ms)", "qSize(B)", "txRate(Mb)",
              "qLong(ms)", "qShort(ms)", "total(ms)");
  for (int t_ms = 1; t_ms <= 25; ++t_ms) {
    simu.run_until(sim::TimePoint::zero() + Duration::millis(t_ms));
    const auto pred =
        teller.predict(simu.now(), qdisc.byte_count(), qdisc.head_since());
    std::printf("  %6d %10lld %10.2f %10.2f %10.2f %10.2f\n", t_ms,
                static_cast<long long>(qdisc.byte_count()),
                teller.tx_rate_bps(simu.now()) / 1e6, pred.q_long.to_millis(),
                pred.q_short.to_millis(), pred.total().to_millis());
  }
  std::printf("\n(paper: 5-15 ms is dominated by the qShort rise; after ~15 ms the\n"
              " decayed txRate makes qLong the dominant, stable component)\n");
}

// Figs. 11 and 12, with Fig. 22 as their part (c): trace-driven
// evaluation. For each of the five wireless traces, P(RTT > 200 ms),
// P(frame delay > 400 ms) and P(frame rate < 10 fps), averaged over
// seeds, for the RTP/GCC line-up (Fig. 11: Gcc+FIFO, Gcc+CoDel,
// Gcc+Zhuge) and the TCP one (Fig. 12: Copa, Copa+FastAck, ABC
// (host-router co-design), Copa+Zhuge).

void print_fig11(const std::vector<TailMetrics>& runs) {
  const auto cells = seed_means(runs);
  std::printf("=== Fig. 11: RTP/RTCP over real-world-like traces ===\n");
  print_trace_panel("(a) P(NetworkRtt > 200 ms)", kRtpModes, 12, cells,
                    &TailMetrics::rtt_gt_200);
  print_trace_panel("(b) P(FrameDelay > 400 ms)", kRtpModes, 12, cells,
                    &TailMetrics::fd_gt_400);
  print_trace_panel("(c) P(FrameRate < 10 fps)   [Fig. 22(a)]", kRtpModes, 12,
                    cells, &TailMetrics::fps_lt_10);
  std::printf("\n(paper: Zhuge reduces the long-RTT ratio by 45-75%% and the\n"
              " delayed-frame ratio by 38-92%% vs the best baseline)\n");
  std::printf("\n(paper Fig. 22: Zhuge attains the smallest or near-smallest"
              " low-fps ratio)\n");
}

void print_fig12(const std::vector<TailMetrics>& runs) {
  const auto cells = seed_means(runs);
  std::printf("=== Fig. 12: TCP over real-world-like traces ===\n");
  print_trace_panel("(a) P(NetworkRtt > 200 ms)   [sender-capture semantics]",
                    kTcpModes, 13, cells, &TailMetrics::rtt_gt_200);
  print_trace_panel("(b) P(FrameDelay > 400 ms)", kTcpModes, 13, cells,
                    &TailMetrics::fd_gt_400);
  print_trace_panel("(c) P(FrameRate < 10 fps)   [Fig. 22(b)]", kTcpModes, 12,
                    cells, &TailMetrics::fps_lt_10);
  std::printf("\n(paper: Copa+Zhuge beats the AP-only baselines and is comparable\n"
              " to ABC, which needs host *and* router changes)\n");
  std::printf("\n(paper Fig. 22: Zhuge attains the smallest or near-smallest low-fps"
              " ratio;\n ABC underperforms on frame rate due to aggressive rate"
              " ascent)\n");
}

// Fig. 13: detailed tail distributions (1-CDF) of network RTT, frame
// delay, and frame rate for traces W1 (WiFi) and C1 (cellular) under
// Gcc+FIFO, Gcc+CoDel, Gcc+Zhuge.

constexpr std::array<trace::TraceKind, 2> kFig13Traces = {
    trace::TraceKind::kRestaurantWifi, trace::TraceKind::kIndoorMixed45G};
constexpr std::array<double, 4> kFig13DelayMs = {100, 200, 400, 800};
constexpr std::array<double, 3> kFig13Fps = {6, 10, 12};

ScenarioSpec fig13_spec(trace::TraceKind kind, const Mode& m, int seed) {
  return trace_spec(kind, 29, 300.0, seed, m);
}

void print_fig13(const std::vector<TailCurves>& rows) {
  std::printf("=== Fig. 13: tail CDFs on W1 and C1 (RTP/GCC) ===\n");
  const TailCurves* row = rows.data();
  for (const auto kind : kFig13Traces) {
    std::printf("\n--- trace %s (%s) ---\n", trace::short_name(kind),
                trace::long_name(kind));
    std::printf("P(NetworkRtt > x):%14s", "");
    for (double t : kFig13DelayMs) std::printf(" %7.0fms", t);
    std::printf("   p99(ms)\n");
    for (std::size_t i = 0; i < kRtpModes.size(); ++i) {
      print_ccdf(kRtpModes[i].label, row[i].rtt_above);
      std::printf(" %8.0f\n", row[i].rtt_p99);
    }
    std::printf("P(FrameDelay > x):%14s", "");
    for (double t : kFig13DelayMs) std::printf(" %7.0fms", t);
    std::printf("\n");
    print_ccdf_rows(kRtpModes, row, &TailCurves::fd_above);
    std::printf("P(FrameRate < x):%15s %9s %9s %9s\n", "", "<6fps", "<10fps", "<12fps");
    print_ccdf_rows(kRtpModes, row, &TailCurves::fps_below);
    row += kRtpModes.size();
  }
  std::printf("\n(paper: on W1, Zhuge reduces p99 RTT from ~400 ms to ~170 ms and\n"
              " roughly halves the delayed-frame and low-fps ratios)\n");
}

// Figs. 14 and 15: degradation durations after a bandwidth drop of
// factor k (30 Mbps -> 30/k), averaged over seeds to stabilise the
// AQM/loss randomness: (a) RTT > 200 ms, (b) frame delay > 400 ms,
// (c) frame rate < 10 fps. Fig. 14 runs RTP/GCC under FIFO, CoDel and
// Zhuge. Fig. 15 runs Copa, Copa+FastAck, ABC and Copa+Zhuge; the paper's
// shape: Zhuge wins for k < 15-30, at extreme k the durations are bounded
// by RTO recovery and ABC's explicit signalling can win. Its last two
// rows rerun Copa and Copa+Zhuge with the AP's default 450 KB queue and
// the paper's 2.5 Mbps video instead of the microbenchmarks' 100-packet
// buffer and link-filling 40 Mbps cap.

const std::vector<Mode> kFig15Modes = {
    kTcpModes[0], kTcpModes[1], kTcpModes[2], kTcpModes[3],
    {"Copa/450KB", SpecFlowKind::kTcpCopa, ApMode::kNone, QdiscKind::kFifo, true},
    {"Copa+Zhuge/450KB", SpecFlowKind::kTcpCopa, ApMode::kZhuge, QdiscKind::kFifo, true},
};

void print_fig14(const std::vector<Degradation>& runs) {
  std::printf("=== Fig. 14: RTP degradation durations after ABW drop ===\n");
  print_degradation(kDropHeadings, "mode \\ k", 12, kRtpModes, kDropKs, print_k,
                    print_secs, seed_means(runs));
  std::printf("\n(paper: Gcc+Zhuge cuts degradation durations by >= 50%% across k)\n");
}

void print_fig15(const std::vector<Degradation>& runs) {
  std::printf("=== Fig. 15: TCP degradation durations after ABW drop ===\n");
  print_degradation(kDropHeadings, "mode \\ k", 18, kFig15Modes, kDropKs, print_k,
                    print_secs, seed_means(runs));
  std::printf("\n(paper: Copa+Zhuge cuts RTT degradation 14-64%% for k < 30; at\n"
              " k >= 30 the durations are RTO-bound and ABC can do better)\n");
}

// Figs. 16 and 17: degradation over a 60 s run after the warmup. Fig. 16
// adds 0..40 competing CUBIC bulk flows at the same AP. Fig. 17 shares the
// channel (PHY MCS 7 = 65 Mbps) with 5..40 wireless interferers,
// saturating bulk senders on other APs; interference is continuous, so its
// metric is the fraction of time spent degraded rather than a per-event
// duration.

constexpr double kSharedRunS = 60.0;
const std::vector<double> kFig16Flows = {0, 10, 20, 30, 40};
const std::vector<double> kFig17Interferers = {5, 10, 20, 30, 40};

ScenarioSpec fig16_spec(const Mode& m, double flows, int seed) {
  ScenarioSpec spec = figure_spec(kSharedRunS, seed, m);
  spec.stations.front().rate_trace.mbps = 30.0;
  // CUBIC bulk competitors sharing the RTC flow's AP queue.
  app::SpecFlow bulk;
  bulk.kind = SpecFlowKind::kTcpBulk;
  spec.flows.insert(spec.flows.end(), static_cast<std::size_t>(flows), bulk);
  return spec;
}

ScenarioSpec fig17_spec(const Mode& m, double interferers, int seed) {
  ScenarioSpec spec = figure_spec(kSharedRunS, seed, m);
  spec.interferers = static_cast<int>(interferers);
  return spec;
}

void print_fig16(const std::vector<Degradation>& cells) {
  std::printf("=== Fig. 16: RTP under competing CUBIC bulk flows ===\n");
  print_degradation({"(a) NetworkRtt > 200 ms, seconds (of 55 s)",
                     "(b) FrameDelay > 400 ms, seconds",
                     "(c) FrameRate < 10 fps, seconds"},
                    "mode \\ flows", 12, kRtpModes, kFig16Flows, print_count,
                    [](double v) { std::printf(" %7.2f", v); }, cells);
  std::printf("\n(paper: Zhuge reduces degradation by up to 40%% under competition)\n");
}

void print_fig17(const std::vector<Degradation>& cells) {
  std::printf("=== Fig. 17: RTP under wireless interference ===\n");
  print_degradation({"(a) frequency of NetworkRtt > 200 ms",
                     "(b) frequency of FrameDelay > 400 ms",
                     "(c) frequency of FrameRate < 10 fps"},
                    "mode \\ n", 12, kRtpModes, kFig17Interferers, print_count,
                    [](double v) {
                      std::printf(" %6.2f%%", 100.0 * v / (kSharedRunS - kWarmupS));
                    },
                    cells);
  std::printf("\n(paper: Zhuge halves the degradation frequency; Cisco measured up\n"
              " to 29 interferers at P90 on 2.4 GHz, so this regime is realistic)\n");
}

// Fig. 18: the paper's OpenWrt-testbed scenarios, rebuilt on the simulated
// AP (substitution documented in DESIGN.md):
//   scp — a bulk transfer toggling on/off every 30 s alongside the RTC flow
//   mcs — the link-layer modulation-coding scheme re-rolled every 30 s
//   raw — the plain fluctuating office channel
// Reported: tail ratios (network RTT, frame delay) and steady-state
// bitrate, with and without Zhuge.

constexpr std::array<const char*, 3> kFig18Scenarios = {"scp", "mcs", "raw"};
const std::vector<Mode> kFig18Modes = {
    {"none"}, {"Zhuge", SpecFlowKind::kRtpGcc, ApMode::kZhuge}};

ScenarioSpec fig18_spec(std::string_view scenario, const Mode& m, int seed) {
  const double dur = 240.0;
  if (scenario == "raw") {  // crowded-office channel
    return trace_spec(trace::TraceKind::kOfficeWifi, 31, dur, seed, m);
  }
  ScenarioSpec spec = figure_spec(dur, seed, m);
  if (scenario == "scp") {
    spec.stations.front().mcs = 4;  // 39 Mbps
    app::SpecFlow scp;
    scp.kind = SpecFlowKind::kTcpBulk;
    scp.onoff = true;
    spec.flows.push_back(scp);
  } else {  // mcs
    spec.stations.front().mcs = 5;
    spec.mcs_reroll = true;
    // At 2 Mbps even MCS0 (6.5 Mbps) never congests; stream a richer
    // video so the MCS drops actually bite, as they do on the paper's
    // testbed where the channel carries background office traffic too.
    spec.flows.front().max_bitrate_mbps = 12.0;
  }
  return spec;
}

void print_fig18(const std::vector<TailMetrics>& rows) {
  std::printf("=== Fig. 18: testbed-style scenarios (scp / mcs / raw) ===\n");
  std::printf("\n  %-9s %-7s %14s %14s %12s\n", "scenario", "mode", "RTT>200ms",
              "Frame>400ms", "bitrate(Mbps)");
  const TailMetrics* row = rows.data();
  for (const char* scenario : kFig18Scenarios) {
    const TailMetrics& base = row[0];
    const TailMetrics& zhuge_m = row[1];
    for (std::size_t mi = 0; mi < kFig18Modes.size(); ++mi) {
      std::printf("  %-9s %-7s %13.3f%% %13.3f%% %12.2f\n", scenario,
                  kFig18Modes[mi].label, 100.0 * row[mi].rtt_gt_200,
                  100.0 * row[mi].fd_gt_400, row[mi].goodput_mbps);
    }
    const auto impr = [](double a, double b) {
      return a > 0 ? 100.0 * (a - b) / a : 0.0;
    };
    std::printf("  %-9s improvement: RTT tail %.0f%%, frame tail %.0f%%, "
                "bitrate delta %+.1f%%\n",
                scenario, impr(base.rtt_gt_200, zhuge_m.rtt_gt_200),
                impr(base.fd_gt_400, zhuge_m.fd_gt_400),
                base.goodput_mbps > 0
                    ? 100.0 * (zhuge_m.goodput_mbps - base.goodput_mbps) /
                          base.goodput_mbps
                    : 0.0);
    row += kFig18Modes.size();
  }
  std::printf("\n(paper: 17-95%% RTT-tail and 9-67%% frame-tail improvement across\n"
              " scenarios, with the steady-state bitrate unchanged)\n");
}

// Fig. 19: Fortune Teller prediction accuracy. (a) CDF of |predicted -
// actual| per trace; (b) heatmap of estimated vs real delay
// (row-normalised, log2-spaced 1..256 ms bins).

struct PredictionAccuracy {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  std::size_t samples = 0;
  stats::Heatmap2D heat{1.0, 256.0, 8};
};

PredictionAccuracy prediction_accuracy(const ScenarioSpec&,
                                       const MultiStationResult& r) {
  const auto& e = r.prediction_error_ms;
  PredictionAccuracy a;
  a.mean = e.mean();
  a.p50 = e.quantile(0.5);
  a.p90 = e.quantile(0.9);
  a.p99 = e.quantile(0.99);
  a.samples = e.count();
  for (const auto& [pred, real] : r.series.predicted_vs_real_ms) {
    a.heat.add(std::max(pred, 1e-3), std::max(real, 1e-3));
  }
  return a;
}

ScenarioSpec fig19_spec(trace::TraceKind kind, const Mode& m, int seed) {
  return trace_spec(kind, 41, 150.0, seed, m);
}

void print_fig19(const std::vector<PredictionAccuracy>& rows) {
  std::printf("=== Fig. 19: Fortune Teller prediction accuracy ===\n");
  std::printf("\n(a) prediction-error CDF per trace, |estimated - real| (ms)\n");
  std::printf("  %-10s %8s %8s %8s %8s %10s\n", "trace", "p50", "p90", "p99", "mean",
              "samples");
  stats::Heatmap2D heat(1.0, 256.0, 8);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PredictionAccuracy& a = rows[i];
    std::printf("  %-10s %8.2f %8.2f %8.2f %8.2f %10zu\n",
                trace::short_name(kPaperTraces[i]), a.p50, a.p90, a.p99, a.mean,
                a.samples);
    heat.merge(a.heat);
  }

  std::printf("\n(b) heatmap: estimated (columns) vs real (rows) delay,"
              " row-normalised %%\n     est:");
  for (std::size_t x = 0; x < heat.bins(); ++x) {
    std::printf(" %5.0fms", heat.bin_edge(x));
  }
  std::printf("\n");
  for (std::size_t y = 0; y < heat.bins(); ++y) {
    std::printf("  %5.0fms", heat.bin_edge(y));
    for (std::size_t x = 0; x < heat.bins(); ++x) {
      std::printf(" %6.1f%%", 100.0 * heat.cell_row_normalised(x, y));
    }
    std::printf("\n");
  }
  std::printf("\n(paper: errors well below the 50 ms RTT for low delays; at high\n"
              " real delays the estimate may be off but is still 'high enough'\n"
              " to trigger the sender to back off)\n");
}

// Fig. 20: steady-state fairness between two RTC flows sharing the AP,
// for RTP/GCC and TCP/Copa:
//   bar (a) neither flow optimised, (b) one of two optimised (external
//   fairness), (c) both optimised (internal fairness).
// Reported: per-flow goodput normalised by the link capacity.

constexpr std::array<SpecFlowKind, 2> kFig20Kinds = {SpecFlowKind::kRtpGcc,
                                                     SpecFlowKind::kTcpCopa};

struct Optimised {
  ApMode ap;
  bool flow_a;
  bool flow_b;
};
constexpr std::array<Optimised, 3> kFig20Bars = {{{ApMode::kNone, false, false},
                                                  {ApMode::kZhuge, true, false},
                                                  {ApMode::kZhuge, true, true}}};

ScenarioSpec fig20_spec(SpecFlowKind kind, const Optimised& o, int seed) {
  const double capacity_mbps = 20.0;
  ScenarioSpec spec = figure_spec(300.0, seed, {"", kind, o.ap});
  spec.warmup_s = 120.0;  // measure converged steady state
  spec.stations.front().rate_trace.mbps = capacity_mbps;
  // Two RTC flows through the same AP queue. Let both contend for the
  // link: raise the encoder cap so goodput is bandwidth-limited, not
  // content-limited.
  app::SpecFlow& a = spec.flows.front();
  a.max_bitrate_mbps = capacity_mbps;
  app::SpecFlow b = a;
  a.zhuge = o.flow_a;
  b.zhuge = o.flow_b;
  spec.flows.push_back(b);
  return spec;
}

struct Bar {
  double flow_a = 0.0;
  double flow_b = 0.0;
};

Bar fairness_bar(const ScenarioSpec& spec, const MultiStationResult& r) {
  const double capacity_bps = spec.stations.front().rate_trace.mbps * 1e6;
  return {r.flows[0].goodput_bps / capacity_bps, r.flows[1].goodput_bps / capacity_bps};
}

void print_fig20(const std::vector<Bar>& bars) {
  std::printf("=== Fig. 20: fairness of Zhuge (goodput normalised by capacity) ===\n");
  const Bar* bar = bars.data();
  for (const SpecFlowKind kind : kFig20Kinds) {
    std::printf("\n--- %s ---\n",
                kind == SpecFlowKind::kRtpGcc ? "RTP/RTCP (GCC)" : "TCP (Copa)");
    const Bar& a = bar[0];
    const Bar& b = bar[1];
    const Bar& c = bar[2];
    std::printf("  (a) w/o Zhuge:        flow1 %5.1f%%  flow2 %5.1f%%  sum %5.1f%%\n",
                100 * a.flow_a, 100 * a.flow_b, 100 * (a.flow_a + a.flow_b));
    std::printf("  (b) one optimised:    flow1 %5.1f%%* flow2 %5.1f%%  sum %5.1f%%\n",
                100 * b.flow_a, 100 * b.flow_b, 100 * (b.flow_a + b.flow_b));
    std::printf("  (c) both optimised:   flow1 %5.1f%%* flow2 %5.1f%%* sum %5.1f%%\n",
                100 * c.flow_a, 100 * c.flow_b, 100 * (c.flow_a + c.flow_b));
    const auto gap = [](const Bar& g) {
      return std::abs(g.flow_a - g.flow_b) / std::max(g.flow_a + g.flow_b, 1e-9) * 2.0;
    };
    std::printf("  flow gap: baseline(a) %.1f%%, one-optimised(b) %.1f%%, "
                "both(c) %.1f%%\n",
                100.0 * gap(a), 100.0 * gap(b), 100.0 * gap(c));
    std::printf("  unfairness *added* by Zhuge in (b): %+.1f%% vs the CCA's own\n"
                "  baseline gap  (* = Zhuge-optimised)\n",
                100.0 * (gap(b) - gap(a)));
    bar += kFig20Bars.size();
  }
  std::printf("\n(paper: bitrate difference of optimised vs non-optimised < 3%%;\n"
              " internal fairness unaffected, GCC even gains ~10%% bitrate)\n");
}

// Table 3 (appendix): evaluation over ABC's original traces — decade-old
// cellular links with roughly an order of magnitude lower ABW (our
// legacy-cellular generator). Copa vs ABC vs Copa+Zhuge.

const std::vector<Mode> kTable3Modes = {kTcpModes[0], kTcpModes[2], kTcpModes[3]};

ScenarioSpec table3_spec(trace::TraceKind kind, const Mode& m, int seed) {
  ScenarioSpec spec = seeded_trace_spec(kind, m, seed);
  // The legacy links average ~2.5 Mbps; keep the video within reach.
  spec.flows.front().max_bitrate_mbps = 2.0;
  return spec;
}

void print_table3(const std::vector<TailMetrics>& runs) {
  const auto cols = seed_means(runs);
  std::printf("=== Table 3: ABC's legacy low-bandwidth cellular traces ===\n");
  std::printf("\n  %-26s", "metric");
  for (const Mode& m : kTable3Modes) std::printf(" %12s", m.label);
  std::printf("\n");
  std::printf("  %-26s", "P(NetworkRtt > 200ms)");
  for (const auto& c : cols) std::printf(" %11.2f%%", 100.0 * c.rtt_gt_200);
  std::printf("\n  %-26s", "P(FrameDelay > 400ms)");
  for (const auto& c : cols) std::printf(" %11.2f%%", 100.0 * c.fd_gt_400);
  std::printf("\n  %-26s", "P(FrameRate < 10fps)");
  for (const auto& c : cols) std::printf(" %11.2f%%", 100.0 * c.fps_lt_10);
  std::printf("\n  %-26s", "goodput (Mbps)");
  for (const auto& c : cols) std::printf(" %12.2f", c.goodput_mbps);
  std::printf("\n");

  std::printf("\n(paper Table 3: ABC wins on its own traces on application metrics;\n"
              " Copa+Zhuge still improves on plain Copa by ~67%% and is comparable\n"
              " to ABC without touching server or client)\n");
}

// Ablations of the design choices called out in DESIGN.md §5:
//   1. qShort term on/off (the instant channel-stall signal)
//   2. Eq. 1 burst adjustment on/off
//   3. distributional delta sampling vs per-ACK accumulation (§5.2)
//   4. delay tokens on/off
//   5. retreatable holds on/off (good news travels fast)
//   6. Fortune Teller window length sweep (transience-equilibrium nexus)
// Each variant runs the W1 trace over seeds (RTP for 1-2, TCP for 3-5)
// plus the k=10 bandwidth-drop microbenchmark, all under Zhuge.

struct Variant {
  const char* label;
  std::function<void(core::ZhugeConfig&)> tweak;
};

struct AblationTable {
  const char* title;
  Mode mode;
  std::vector<Variant> variants;
};

const std::vector<AblationTable> kAblations = {
    {"Fortune Teller (RTP/GCC path)",
     {"", SpecFlowKind::kRtpGcc, ApMode::kZhuge},
     {{"full Zhuge", [](core::ZhugeConfig&) {}},
      {"no qShort", [](core::ZhugeConfig& z) { z.fortune.use_qshort = false; }},
      {"no burst adjustment (Eq.1)",
       [](core::ZhugeConfig& z) { z.fortune.burst_adjustment = false; }},
      {"window 10 ms (too short)",
       [](core::ZhugeConfig& z) { z.fortune.window = Duration::millis(10); }},
      {"window 200 ms (too long)",
       [](core::ZhugeConfig& z) { z.fortune.window = Duration::millis(200); }}}},
    {"Feedback Updater (TCP/Copa path)",
     {"", SpecFlowKind::kTcpCopa, ApMode::kZhuge},
     {{"full Zhuge", [](core::ZhugeConfig&) {}},
      {"accumulate deltas (no dist.)",
       [](core::ZhugeConfig& z) { z.oob.distributional_sampling = false; }},
      {"no delay tokens", [](core::ZhugeConfig& z) { z.oob.use_tokens = false; }},
      {"no retreat of pending holds",
       [](core::ZhugeConfig& z) { z.oob.retreat_pending = false; }},
      {"raw Algorithm 1 (no smooth)",
       [](core::ZhugeConfig& z) { z.oob.delta_smoothing_alpha = 1.0; }}}},
};

/// A variant's runs: one W1 run per seed, then the drop run.
struct AblationRun {
  TailMetrics tails;            ///< read on the W1 runs
  double drop_rtt_secs = 0.0;   ///< read on the drop run
};

AblationRun ablation_run(const ScenarioSpec& spec, const MultiStationResult& r) {
  return {tail_metrics(spec, r), drop_degradation(spec, r).rtt_secs};
}

std::vector<ScenarioSpec> ablation_grid() {
  std::vector<ScenarioSpec> specs;
  for (const AblationTable& table : kAblations) {
    for (const Variant& v : table.variants) {
      for (const int s : kSeeds) {
        specs.push_back(seeded_trace_spec(trace::TraceKind::kRestaurantWifi, table.mode, s));
      }
      specs.push_back(drop_spec(table.mode, 10.0, 3));
      for (std::size_t i = specs.size() - kSeeds.size() - 1; i < specs.size(); ++i) {
        v.tweak(specs[i].zhuge);
      }
    }
  }
  return specs;
}

void print_ablation(const std::vector<AblationRun>& runs) {
  std::printf("=== Ablations of Zhuge's design choices ===\n");
  const AblationRun* run = runs.data();
  for (const AblationTable& table : kAblations) {
    std::printf("\n--- %s ---\n", table.title);
    std::printf("  %-28s %12s %12s | %12s\n", "variant", "W1 RTT>200", "W1 fd>400",
                "drop k=10 (s)");
    for (const Variant& v : table.variants) {
      std::vector<TailMetrics> w1;
      for (std::size_t s = 0; s < kSeeds.size(); ++s) w1.push_back((run++)->tails);
      const TailMetrics metrics = seed_mean(w1);
      std::printf("  %-28s %11.3f%% %11.3f%% | %12.2f\n", v.label,
                  100.0 * metrics.rtt_gt_200, 100.0 * metrics.fd_gt_400,
                  (run++)->drop_rtt_secs);
    }
  }
  std::printf("\n(lower is better everywhere; 'full Zhuge' should be at or near\n"
              " the best value in each column)\n");
}

// The table and the pooled runner.

struct Figure {
  std::string_view name;
  std::function<void()> run;
};

/// Run every spec on the pool, reduce each result in its worker, then
/// print the rows in grid order.
template <typename Reduce, typename Print>
std::function<void()> pooled(std::vector<ScenarioSpec> specs, Reduce reduce,
                             Print print) {
  return [specs = std::move(specs), reduce, print] {
    using Row = std::invoke_result_t<const Reduce&, const ScenarioSpec&,
                                     const MultiStationResult&>;
    std::vector<Row> rows(specs.size());
    app::run_indexed_pool(specs.size(), std::thread::hardware_concurrency(),
                          [&](std::size_t i) {
                            rows[i] = reduce(specs[i], app::run_multi_station(specs[i]));
                          });
    print(rows);
  };
}

/// Every figure, in paper order.
std::vector<Figure> figure_table() {
  const std::vector<Mode> gcc = {kRtpModes[0]};
  const std::vector<Mode> gcc_zhuge = {kRtpModes[2]};
  return {
      {"fig02", pooled(cross(kFig02Access, gcc, {17}, fig02_spec),
                       tail_curves(kFig02RttMs, kFig02FdMs, kFig02Fps), print_fig02)},
      {"fig03", fig03},
      {"fig04", pooled(cross(kFig04Modes, kDropKs, {3}, drop_spec), convergence,
                       print_fig04)},
      {"fig07", fig07},
      {"fig11", pooled(cross(kPaperTraces, kRtpModes, kSeeds, seeded_trace_spec),
                       tail_metrics, print_fig11)},
      {"fig12", pooled(cross(kPaperTraces, kTcpModes, kSeeds, seeded_trace_spec),
                       tail_metrics, print_fig12)},
      {"fig13", pooled(cross(kFig13Traces, kRtpModes, {4}, fig13_spec),
                       tail_curves(kFig13DelayMs, kFig13DelayMs, kFig13Fps), print_fig13)},
      {"fig14", pooled(cross(kRtpModes, kDropKs, kSeeds, drop_spec), drop_degradation,
                       print_fig14)},
      {"fig15", pooled(cross(kFig15Modes, kDropKs, kSeeds, drop_spec), drop_degradation,
                       print_fig15)},
      {"fig16", pooled(cross(kRtpModes, kFig16Flows, {7}, fig16_spec),
                       degradation_after_warmup, print_fig16)},
      {"fig17", pooled(cross(kRtpModes, kFig17Interferers, {7}, fig17_spec),
                       degradation_after_warmup, print_fig17)},
      {"fig18", pooled(cross(kFig18Scenarios, kFig18Modes, {9}, fig18_spec),
                       tail_metrics, print_fig18)},
      {"fig19", pooled(cross(kPaperTraces, gcc_zhuge, {6}, fig19_spec),
                       prediction_accuracy, print_fig19)},
      {"fig20", pooled(cross(kFig20Kinds, kFig20Bars, {11}, fig20_spec), fairness_bar,
                       print_fig20)},
      {"table3", pooled(cross(std::array{trace::TraceKind::kLegacyCellular}, kTable3Modes,
                              kSeeds, table3_spec),
                        tail_metrics, print_table3)},
      {"ablation", pooled(ablation_grid(), ablation_run, print_ablation)},
  };
}

int usage(const std::vector<Figure>& table) {
  std::fprintf(stderr,
               "usage: figures [NAME...] [--trace FILE] [--metrics FILE] [--attrib]\n"
               "  runs the named figures (default: all, in paper order):\n ");
  for (const Figure& f : table) {
    std::fprintf(stderr, " %.*s", static_cast<int>(f.name.size()), f.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int run(int argc, char** argv) {
  const std::vector<Figure> table = figure_table();
  obs::ObsSession obs_session(argc, argv);
  if (!obs_session.error().empty()) return usage(table);
  std::vector<const Figure*> chosen;
  for (const std::string_view arg : obs_session.args()) {
    const auto it = std::find_if(table.begin(), table.end(),
                                 [&](const Figure& f) { return f.name == arg; });
    if (it == table.end()) return usage(table);
    chosen.push_back(&*it);
  }
  if (chosen.empty()) {
    for (const Figure& f : table) chosen.push_back(&f);
  }

  for (const Figure* f : chosen) f->run();
  if (!obs_session.write()) return 2;
  // The pools merged every run's checker into this thread's context.
  const std::string inv = obs::invariants().summary();
  if (inv.empty()) return 0;
  std::printf("%s\n", inv.c_str());
  return 1;
}

}  // namespace
}  // namespace zhuge::bench

int main(int argc, char** argv) { return zhuge::bench::run(argc, argv); }
