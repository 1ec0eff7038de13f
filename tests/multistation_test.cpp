// Integration tests for the multi-station scenario engine: determinism
// (repeat runs and serial-vs-parallel sweeps are bit-identical, including
// the 64-station churn acceptance spec), churn bookkeeping, per-station
// accounting, station quiesce, and AP-mode sensitivity.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "app/scenario.hpp"
#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "obs/metrics.hpp"

namespace zhuge::app {
namespace {

ScenarioSpec parse_or_die(const char* text) {
  std::string err;
  const auto spec = parse_scenario_spec(text, &err);
  EXPECT_TRUE(spec.has_value()) << err;
  return *spec;
}

/// Small mixed workload: 3 stations, RTP + TCP static flows, one mid-run
/// departure, light churn.
ScenarioSpec small_spec() {
  return parse_or_die(R"({
    "name": "small",
    "duration_s": 12,
    "warmup_s": 2,
    "seed": 5,
    "stations": [ { "count": 3, "mcs": 7 } ],
    "flows": [
      { "kind": "rtp_gcc", "station": 0, "zhuge": true },
      { "kind": "tcp_cubic", "station": 1, "start_s": 1, "stop_s": 8 },
      { "kind": "tcp_bbr", "station": 2, "start_s": 2 }
    ],
    "churn": {
      "enabled": true,
      "mean_interarrival_s": 1.5,
      "mean_lifetime_s": 4,
      "max_concurrent": 4,
      "mix_rtp_gcc": 1,
      "start_s": 2
    }
  })");
}

/// The acceptance-criterion spec: 64 stations with fade/FQ-CoDel/leaving
/// groups and a dense mixed churn process.
ScenarioSpec dense_spec() {
  return parse_or_die(R"({
    "name": "dense64",
    "duration_s": 15,
    "warmup_s": 3,
    "seed": 1,
    "stations": [
      { "count": 48, "mcs": 7 },
      { "count": 8, "mcs": 4,
        "fade": { "period_s": 4, "depth_mcs": 3, "duty": 0.3 } },
      { "count": 8, "mcs": 5, "qdisc": "fq_codel", "leave_s": 11 }
    ],
    "flows": [
      { "kind": "rtp_gcc", "station": 0, "zhuge": true },
      { "kind": "tcp_cubic", "station": 1, "start_s": 1 }
    ],
    "churn": {
      "enabled": true,
      "mean_interarrival_s": 0.3,
      "mean_lifetime_s": 5,
      "max_concurrent": 24,
      "mix_rtp_gcc": 0.6,
      "mix_tcp_cubic": 0.25,
      "mix_tcp_bbr": 0.15,
      "zhuge_fraction": 0.7,
      "start_s": 1,
      "max_bitrate_mbps": 1.5
    }
  })");
}

TEST(MultiStation, RepeatRunsBitIdentical) {
  const ScenarioSpec spec = small_spec();
  const auto a = run_multi_station(spec);
  const auto b = run_multi_station(spec);
  EXPECT_EQ(multi_result_fingerprint(a), multi_result_fingerprint(b));
  EXPECT_GT(a.events_executed, 0u);
}

TEST(MultiStation, SeedChangesOutcome) {
  const ScenarioSpec spec = small_spec();
  const auto a = run_multi_station(spec, 5);
  const auto b = run_multi_station(spec, 6);
  EXPECT_NE(multi_result_fingerprint(a), multi_result_fingerprint(b));
}

TEST(MultiStation, ChurnBookkeepingConsistent) {
  const ScenarioSpec spec = small_spec();
  const auto r = run_multi_station(spec);

  // Every scheduled flow arrived; departures are the flows whose window
  // closed before the run end.
  EXPECT_EQ(r.arrivals, r.flows.size());
  std::uint64_t expect_departures = 0;
  for (const auto& f : r.flows) {
    if (f.stop_s < spec.duration_s) ++expect_departures;
  }
  EXPECT_EQ(r.departures, expect_departures);
  EXPECT_GT(r.departures, 0u) << "spec should exercise mid-run teardown";

  // The RTP flow on station 0 actually moved video post-warmup.
  EXPECT_GT(r.flows[0].frames_decoded, 0u);
  EXPECT_GT(r.flows[0].goodput_bps, 0.0);
  EXPECT_GT(r.agg_network_rtt_ms.count(), 0u);
  EXPECT_FALSE(r.active_flows.points().empty());

  // Zhuge teardown contract, now under churn: nothing stranded, no
  // invariant tripped.
  EXPECT_EQ(r.stranded_acks, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

TEST(MultiStation, PerStationAccounting) {
  const ScenarioSpec spec = small_spec();
  const auto r = run_multi_station(spec);
  ASSERT_EQ(r.stations.size(), 3u);
  for (const auto& st : r.stations) {
    EXPECT_GE(st.airtime_s, 0.0);
    EXPECT_LT(st.airtime_s, spec.duration_s);
  }
  // Stations 0..2 all carried a static flow: airtime must be non-zero.
  EXPECT_GT(r.stations[0].airtime_s, 0.0);
  EXPECT_GT(r.stations[1].airtime_s, 0.0);
  EXPECT_GT(r.stations[2].airtime_s, 0.0);
  EXPECT_GT(r.stations[0].delivered_packets, 0u);
}

TEST(MultiStation, StationQuiesceBlackholesTraffic) {
  ScenarioSpec spec = parse_or_die(R"({
    "name": "quiesce",
    "duration_s": 12,
    "warmup_s": 2,
    "stations": [
      { "count": 1, "mcs": 7 },
      { "count": 1, "mcs": 7, "leave_s": 6 }
    ],
    "flows": [
      { "kind": "rtp_gcc", "station": 0, "zhuge": true },
      { "kind": "rtp_gcc", "station": 1, "zhuge": true }
    ]
  })");
  const auto r = run_multi_station(spec);
  // The sender keeps pushing at the quiesced station for 6 s; the AP must
  // black-hole those packets rather than queue or crash.
  EXPECT_GT(r.quiesced_drops, 0u);
  EXPECT_EQ(r.stranded_acks, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  // Station 0 is unaffected and keeps decoding to the end.
  EXPECT_GT(r.flows[0].frames_decoded, r.flows[1].frames_decoded);
}

TEST(MultiStation, ApModeChangesOutcome) {
  ScenarioSpec spec = small_spec();
  spec.ap_mode = ApMode::kZhuge;
  const auto zhuge = run_multi_station(spec);
  spec.ap_mode = ApMode::kNone;
  const auto none = run_multi_station(spec);
  EXPECT_NE(multi_result_fingerprint(zhuge), multi_result_fingerprint(none));
}

TEST(MultiStation, Dense64StationSweepSerialEqualsEightThreads) {
  // The acceptance criterion: the 64-station churn spec, across seeds, is
  // bit-identical between --threads 1 and --threads 8.
  const ScenarioSpec spec = dense_spec();
  const auto grid = cross_spec_seeds(spec, {1, 2, 3});
  const auto parallel = run_spec_sweep(grid, 8);
  const auto serial = run_spec_sweep(grid, 1);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].fingerprint, serial[i].fingerprint)
        << grid[i].name;
    EXPECT_GT(parallel[i].result.arrivals, 10u) << "churn too sparse";
    EXPECT_GT(parallel[i].result.departures, 0u);
    EXPECT_EQ(parallel[i].result.stranded_acks, 0u);
  }
  // Distinct seeds genuinely produce distinct workloads.
  EXPECT_NE(parallel[0].fingerprint, parallel[1].fingerprint);

  // Left-at-11s group (stations 56..63): the run must record their
  // departure as black-holed traffic somewhere across the seeds.
  std::uint64_t total_quiesced = 0;
  for (const auto& run : parallel) total_quiesced += run.result.quiesced_drops;
  EXPECT_GT(total_quiesced, 0u);
}

TEST(MultiStation, FingerprintIndependentOfMetricsSwitch) {
  // Observability must not reach the hashed state: with metrics on, the
  // run may publish gauges but must not reorder the samples it returns.
  const ScenarioSpec spec = small_spec();
  const bool was = obs::metrics_enabled();
  obs::set_metrics_enabled(false);
  const auto off = run_multi_station(spec);
  obs::set_metrics_enabled(true);
  const auto on = run_multi_station(spec);
  obs::set_metrics_enabled(was);
  EXPECT_EQ(multi_result_fingerprint(off), multi_result_fingerprint(on));
}

}  // namespace
}  // namespace zhuge::app
