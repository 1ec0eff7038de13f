#pragma once
// End-to-end scenario engine: servers -> WAN -> AP -> per-station wireless
// hop -> clients, with each client's uplink feedback crossing its own
// wireless hop back. Every run is described by a declarative ScenarioSpec
// (app/spec.hpp) and produces one MultiStationResult; the figure benches,
// the chaos suite, the goldens, the eval matrix and the CLIs all drive it.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "app/access_point.hpp"
#include "app/spec.hpp"
#include "obs/attrib.hpp"
#include "stats/distribution.hpp"
#include "stats/timeseries.hpp"

namespace zhuge::app {

/// Per-flow outputs of a multi-station run, in schedule order. Flows that
/// never delivered anything keep empty distributions.
struct MultiFlowResult {
  std::uint32_t index = 0;
  SpecFlowKind kind = SpecFlowKind::kRtpGcc;
  int station = 0;
  bool zhuge = false;
  double start_s = 0.0;
  double stop_s = 0.0;
  stats::Distribution network_rtt_ms;   ///< post-warmup
  stats::Distribution downlink_owd_ms;
  stats::Distribution frame_delay_ms;
  double goodput_bps = 0.0;             ///< over the flow's post-warmup window
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t packets_delivered = 0;
};

/// Per-station outputs (downlink side).
struct StationResult {
  double airtime_s = 0.0;           ///< medium airtime this station's AMPDUs used
  std::uint64_t qdisc_drops = 0;
  std::uint64_t delivered_packets = 0;
};

/// Everything a run produces. Every simulated field feeds
/// multi_result_fingerprint, so each is part of the bit-identity contract;
/// only the observability outputs `attrib` and `ladder_log` and the
/// engine bookkeeping `events_executed` stay out.
struct MultiStationResult {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<MultiFlowResult> flows;     ///< one per scheduled flow
  std::vector<StationResult> stations;    ///< station index order
  stats::Distribution agg_network_rtt_ms; ///< every flow's network_rtt_ms
  stats::Distribution agg_frame_delay_ms;
  stats::Distribution prediction_error_ms;
  stats::TimeSeries active_flows;         ///< concurrency, sampled 100 ms
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;           ///< mid-run departures only
  std::uint64_t late_packets = 0;         ///< arrived after their flow left
  std::uint64_t qdisc_drops = 0;          ///< sum over stations
  std::uint64_t quiesced_drops = 0;       ///< black-holed at left stations
  std::uint64_t events_executed = 0;      ///< bookkeeping; not hashed
  std::uint64_t flushed_acks_at_end = 0;
  std::uint64_t stranded_acks = 0;
  std::uint64_t invariant_violations = 0;
  AccessPoint::RobustnessStats robustness{};

  /// Fault-injection counters, summed over every injector boundary of the
  /// spec's "faults" section.
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_duplicated = 0;
  std::uint64_t fault_reordered = 0;
  std::uint64_t fault_delay_spiked = 0;
  std::uint64_t fault_bypassed = 0;  ///< non-feedback packets waved through

  /// Flow 0's time series (schedule index 0), recorded when the spec sets
  /// "series" — the control-loop views of Figs. 4/14-17, the chaos
  /// recovery windows and the Fig. 19 prediction heatmap. Empty otherwise.
  struct Series {
    stats::TimeSeries rtt_ms;          ///< every RTT sample, warmup included
    stats::TimeSeries rate_bps;        ///< CCA target (RTP) / cwnd rate, 50 ms
    stats::TimeSeries goodput_bps;     ///< delivered rate, 50 ms bins
    stats::TimeSeries frame_delay_ms;  ///< (decode instant, delay) per frame
    /// (predicted, actual) AP queueing delay per post-warmup packet.
    std::vector<std::pair<double, double>> predicted_vs_real_ms;

    [[nodiscard]] bool empty() const {
      return rtt_ms.points().empty() && rate_bps.points().empty() &&
             goodput_bps.points().empty() && frame_delay_ms.points().empty() &&
             predicted_vs_real_ms.empty();
    }
  };
  Series series;

  /// Per-stage latency attribution (observability only; never hashed by
  /// sweep::multi_result_fingerprint).
  obs::Attribution attrib;

  /// Degradation-ladder transitions, all optimised flows (observability
  /// only; never hashed — same contract as `attrib`).
  std::vector<obs::LadderTransition> ladder_log;
};

/// Run a multi-station spec to completion with its embedded seed.
/// Deterministic in (spec, seed): same spec + same seed => bit-identical
/// MultiStationResult on any platform.
[[nodiscard]] MultiStationResult run_multi_station(const ScenarioSpec& spec);

/// Same, overriding the spec's seed (sweeps across seeds).
[[nodiscard]] MultiStationResult run_multi_station(const ScenarioSpec& spec,
                                                   std::uint64_t seed);

/// Flow 0's per-second decoded-frame counts over [from_s, to_s): the
/// frame-rate distribution the paper's fps tails read. Reads the flow-0
/// series, so it is empty unless the spec set "series".
[[nodiscard]] stats::Distribution frame_rate_fps(const MultiStationResult& r,
                                                 double from_s, double to_s);

}  // namespace zhuge::app
