// End-to-end integration tests for the scenario engine: smoke coverage
// of every flow-kind x AP-mode x qdisc combination, determinism, the
// figure-level spec knobs (cellular link, bulk competitors, interferers,
// MCS re-roll, flow-0 series), and the headline Zhuge behaviour on a
// controlled bandwidth drop.

#include <gtest/gtest.h>

#include <algorithm>

#include "app/scenario.hpp"
#include "app/sweep.hpp"

namespace zhuge::app {
namespace {

using sim::Duration;
using sim::TimePoint;
using namespace sim::literals;

/// One station on a steady 20 Mbps channel, one flow of `kind`.
ScenarioSpec base_spec(SpecFlowKind kind = SpecFlowKind::kRtpGcc,
                       ApMode mode = ApMode::kNone) {
  ScenarioSpec spec;
  spec.duration_s = 20;
  spec.warmup_s = 3;
  spec.seed = 5;
  spec.ap_mode = mode;
  StationGroupSpec station;
  station.rate_trace.mbps = 20;
  spec.stations = {station};
  SpecFlow flow;
  flow.kind = kind;
  flow.zhuge = true;
  flow.fps = 24;
  spec.flows = {flow};
  return spec;
}

struct Combo {
  SpecFlowKind kind;
  ApMode mode;
  QdiscKind qdisc;
};

class ScenarioSmokeTest : public ::testing::TestWithParam<Combo> {};

TEST_P(ScenarioSmokeTest, RunsAndDeliversVideo) {
  ScenarioSpec spec = base_spec(GetParam().kind, GetParam().mode);
  spec.stations.front().qdisc = GetParam().qdisc;
  spec.series = true;
  const auto r = run_multi_station(spec);
  const auto& f = r.flows.front();
  // A clean 20 Mbps channel must deliver nearly all frames with low delay.
  EXPECT_GT(f.frames_decoded, 300u);
  EXPECT_LT(f.network_rtt_ms.quantile(0.5), 150.0);
  EXPECT_GT(f.goodput_bps, 1e6);
  EXPECT_GT(frame_rate_fps(r, spec.warmup_s, spec.duration_s).quantile(0.5), 20.0);
  EXPECT_EQ(r.stranded_acks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ScenarioSmokeTest,
    ::testing::Values(
        Combo{SpecFlowKind::kRtpGcc, ApMode::kNone, QdiscKind::kFifo},
        Combo{SpecFlowKind::kRtpGcc, ApMode::kNone, QdiscKind::kCoDel},
        Combo{SpecFlowKind::kRtpGcc, ApMode::kNone, QdiscKind::kFqCoDel},
        Combo{SpecFlowKind::kRtpGcc, ApMode::kZhuge, QdiscKind::kFifo},
        Combo{SpecFlowKind::kRtpGcc, ApMode::kZhuge, QdiscKind::kCoDel},
        Combo{SpecFlowKind::kTcpCopa, ApMode::kNone, QdiscKind::kFifo},
        Combo{SpecFlowKind::kTcpCopa, ApMode::kZhuge, QdiscKind::kFifo},
        Combo{SpecFlowKind::kTcpCopa, ApMode::kFastAck, QdiscKind::kFifo},
        Combo{SpecFlowKind::kTcpAbc, ApMode::kAbc, QdiscKind::kFifo}));

TEST(Scenario, DeterministicForSameSeed) {
  ScenarioSpec spec = base_spec(SpecFlowKind::kRtpGcc, ApMode::kZhuge);
  spec.stations.front().rate_trace = {};
  spec.stations.front().trace_class = trace::TraceKind::kOfficeWifi;
  spec.stations.front().trace_seed = 3;
  spec.series = true;
  const auto a = run_multi_station(spec);
  const auto b = run_multi_station(spec);
  EXPECT_EQ(multi_result_fingerprint(a), multi_result_fingerprint(b));
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.flows.front().frames_decoded, b.flows.front().frames_decoded);
}

TEST(Scenario, SeedChangesOutcome) {
  const ScenarioSpec spec = base_spec();
  EXPECT_NE(run_multi_station(spec, 5).events_executed,
            run_multi_station(spec, 6).events_executed);
}

TEST(Scenario, TcpCcaVariantsAllRun) {
  for (SpecFlowKind kind : {SpecFlowKind::kTcpCopa, SpecFlowKind::kTcpBbr,
                            SpecFlowKind::kTcpCubic}) {
    const auto r = run_multi_station(base_spec(kind));
    EXPECT_GT(r.flows.front().frames_decoded, 250u) << to_string(kind);
  }
}

TEST(Scenario, CellularLinkRuns) {
  ScenarioSpec spec = base_spec();
  StationGroupSpec& st = spec.stations.front();
  st.link = LinkKind::kCellular;
  st.rate_trace = {};
  st.trace_class = trace::TraceKind::kCity4G;
  st.trace_seed = 3;
  for (ApMode mode : {ApMode::kNone, ApMode::kZhuge}) {
    spec.ap_mode = mode;
    const auto r = run_multi_station(spec);
    EXPECT_GT(r.flows.front().frames_decoded, 300u);
    // A cellular station holds no share of the Wi-Fi medium.
    EXPECT_EQ(r.stations.front().airtime_s, 0.0);
    EXPECT_GT(r.stations.front().delivered_packets, 0u);
  }
}

TEST(Scenario, CompetingBulkFlowsDegradeRtc) {
  ScenarioSpec spec = base_spec();
  const auto clean = run_multi_station(spec);
  SpecFlow bulk;
  bulk.kind = SpecFlowKind::kTcpBulk;
  spec.flows.insert(spec.flows.end(), 8, bulk);
  const auto contended = run_multi_station(spec);
  // Bulk CUBIC flows through the same FIFO must hurt the RTC flow's RTT.
  EXPECT_GT(contended.flows.front().network_rtt_ms.quantile(0.9),
            clean.flows.front().network_rtt_ms.quantile(0.9));
  EXPECT_EQ(contended.flows.back().frames_sent, 0u);  // no video in bulk
  EXPECT_GT(contended.flows.back().goodput_bps, 0.0);
}

TEST(Scenario, BulkOnOffPausesTheTransfer) {
  ScenarioSpec spec = base_spec();
  spec.flows.front().kind = SpecFlowKind::kTcpBulk;
  spec.flows.front().onoff = true;  // paused for [0, 30 s), on for [30, 60)
  EXPECT_EQ(run_multi_station(spec).flows.front().packets_delivered, 0u);
  spec.duration_s = 40;
  const auto cycled = run_multi_station(spec);
  spec.flows.front().onoff = false;  // always on
  const auto steady = run_multi_station(spec);
  EXPECT_GT(cycled.flows.front().packets_delivered, 0u);
  EXPECT_GT(steady.flows.front().goodput_bps,
            2 * cycled.flows.front().goodput_bps);
}

TEST(Scenario, InterferersReduceThroughput) {
  ScenarioSpec spec = base_spec();
  spec.stations.front().rate_trace = {};
  spec.stations.front().mcs = 3;  // 26 Mbps PHY
  spec.flows.front().max_bitrate_mbps = 20;
  const auto clean = run_multi_station(spec);
  spec.interferers = 30;
  const auto noisy = run_multi_station(spec);
  EXPECT_LT(noisy.flows.front().goodput_bps, clean.flows.front().goodput_bps);
  EXPECT_GT(noisy.flows.front().network_rtt_ms.quantile(0.9),
            clean.flows.front().network_rtt_ms.quantile(0.9));
}

TEST(Scenario, McsRerollAndScpScenarioRun) {
  ScenarioSpec spec = base_spec();
  spec.duration_s = 40;  // one 30 s switch inside the run
  spec.stations.front().rate_trace = {};
  spec.stations.front().mcs = 5;
  spec.mcs_reroll = true;
  SpecFlow scp;
  scp.kind = SpecFlowKind::kTcpBulk;
  scp.onoff = true;
  spec.flows.push_back(scp);
  const auto rerolled = run_multi_station(spec);
  EXPECT_GT(rerolled.flows.front().frames_decoded, 500u);
  spec.mcs_reroll = false;
  EXPECT_NE(multi_result_fingerprint(run_multi_station(spec)),
            multi_result_fingerprint(rerolled));
}

TEST(Scenario, SeriesAreOptInAndCoverFlowZero) {
  ScenarioSpec spec = base_spec();
  const auto plain = run_multi_station(spec);
  EXPECT_TRUE(plain.series.empty());
  spec.series = true;
  const auto traced = run_multi_station(spec);
  // 50 ms samples over the 20 s run, warmup included.
  EXPECT_EQ(traced.series.rate_bps.points().size(), 400u);
  EXPECT_EQ(traced.series.goodput_bps.points().size(), 400u);
  EXPECT_EQ(traced.series.frame_delay_ms.points().size(),
            traced.flows.front().frames_decoded);
  EXPECT_GT(traced.series.rtt_ms.points().size(),
            traced.flows.front().network_rtt_ms.count());
  // The sampler adds events; the flow's own trajectory is unchanged.
  EXPECT_GT(traced.events_executed, plain.events_executed);
  EXPECT_EQ(traced.flows.front().frames_decoded, plain.flows.front().frames_decoded);
  EXPECT_NE(multi_result_fingerprint(traced), multi_result_fingerprint(plain));
}

TEST(Scenario, ZhugeCutsDegradationAfterAbwDrop) {
  // The paper's headline microbenchmark (Fig. 14): 30 Mbps -> 3 Mbps.
  ScenarioSpec spec = base_spec();
  spec.duration_s = 40;
  spec.seed = 3;
  spec.series = true;
  spec.stations.front().rate_trace = {30, 3, 20};
  spec.stations.front().queue_limit_bytes = 100 * 1500;  // NS-3-style buffer
  spec.flows.front().max_bitrate_mbps = 40;              // fill the link

  auto degradation = [&](ApMode mode) {
    spec.ap_mode = mode;
    const auto r = run_multi_station(spec);
    return r.series.rtt_ms
        .time_above(200.0, TimePoint::zero() + 20_s, TimePoint::zero() + 40_s)
        .to_seconds();
  };
  const double rtp_base = degradation(ApMode::kNone);
  const double rtp_zhuge = degradation(ApMode::kZhuge);
  EXPECT_LT(rtp_zhuge, rtp_base);  // the shorter control loop must pay off
  EXPECT_GT(rtp_base, 0.5);        // the drop visibly hurts the baseline
}

TEST(Scenario, ZhugePredictionErrorIsBounded) {
  ScenarioSpec spec = base_spec(SpecFlowKind::kRtpGcc, ApMode::kZhuge);
  spec.duration_s = 30;
  spec.series = true;
  spec.stations.front().rate_trace = {};
  spec.stations.front().trace_class = trace::TraceKind::kRestaurantWifi;
  spec.stations.front().trace_seed = 3;
  const auto r = run_multi_station(spec);
  ASSERT_GT(r.prediction_error_ms.count(), 1000u);
  // Paper Fig. 19: most predictions err well below the 50 ms RTT.
  EXPECT_LT(r.prediction_error_ms.quantile(0.5), 25.0);
  EXPECT_EQ(r.series.predicted_vs_real_ms.size(), r.prediction_error_ms.count());
}

TEST(Scenario, FairnessBetweenTwoOptimisedFlows) {
  ScenarioSpec spec = base_spec(SpecFlowKind::kRtpGcc, ApMode::kZhuge);
  spec.flows.push_back(spec.flows.front());
  const auto r = run_multi_station(spec);
  ASSERT_EQ(r.flows.size(), 2u);
  const double a = r.flows[0].goodput_bps;
  const double b = r.flows[1].goodput_bps;
  EXPECT_GT(std::min(a, b) / std::max(a, b), 0.8);
}

TEST(Scenario, MixedOptimisationDoesNotStarveTheOther) {
  ScenarioSpec spec = base_spec(SpecFlowKind::kRtpGcc, ApMode::kZhuge);
  spec.flows.push_back(spec.flows.front());
  spec.flows.back().zhuge = false;  // paper Fig. 20 bar (b)
  const auto r = run_multi_station(spec);
  const double a = r.flows[0].goodput_bps;
  const double b = r.flows[1].goodput_bps;
  EXPECT_GT(std::min(a, b) / std::max(a, b), 0.75);
}

}  // namespace
}  // namespace zhuge::app
