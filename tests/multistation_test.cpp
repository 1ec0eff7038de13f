// Integration tests for the multi-station scenario engine: determinism
// (repeat runs and serial-vs-parallel sweeps are bit-identical, including
// the 64-station churn acceptance spec), churn bookkeeping, per-station
// accounting, station quiesce, and AP-mode sensitivity; and for the AP's
// per-packet index: a queue departure reaches exactly the Fortune Tellers
// of its own station, the index follows flow and station churn and
// optimiser restarts, and the walks that emit packets or logs keep
// 5-tuple order.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "app/access_point.hpp"
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

// ---- AccessPoint per-packet index --------------------------------------

constexpr std::uint32_t kFifoIp = 100;
constexpr std::uint32_t kFqIp = 101;

net::FlowId tcp_flow(std::uint32_t ip, std::uint16_t port) {
  return net::FlowId{1, ip, 5000, port, 6};
}

/// A Zhuge AP with a FIFO station and an fq_codel station; what the AP
/// sends towards the WAN is kept.
struct ApRig {
  explicit ApRig(core::ZhugeConfig zcfg = {}) {
    AccessPoint::Config cfg;
    cfg.mode = ApMode::kZhuge;
    cfg.zhuge = zcfg;
    ap = std::make_unique<AccessPoint>(
        sim, rng, medium, cfg, [](net::Packet&&) {},
        [this](net::Packet&& p) { to_server.push_back(std::move(p)); });
    AccessPoint::StationConfig fifo;
    fifo.qdisc = QdiscKind::kFifo;
    ap->register_station(kFifoIp, fifo_channel, fifo);
    AccessPoint::StationConfig fq;
    fq.qdisc = QdiscKind::kFqCoDel;
    ap->register_station(kFqIp, fq_channel, fq);
  }

  /// `n` data segments of `flow` arrive from the WAN, then the AP runs
  /// for 5 ms: one AMPDU drains them.
  void data(const net::FlowId& flow, int n) {
    for (int i = 0; i < n; ++i) {
      net::Packet p;
      p.uid = ++uid;
      p.flow = flow;
      p.size_bytes = 1240;
      net::TcpHeader h;
      h.seq = uid * 1200;
      h.end_seq = h.seq + 1200;
      p.header = h;
      p.sent_time = sim.now();
      ap->from_wan(std::move(p));
    }
    sim.run_until(sim.now() + Duration::millis(5));
  }

  /// The client ACKs `flow` (an out-of-band feedback packet the AP holds).
  void ack(const net::FlowId& flow) {
    net::Packet p;
    p.uid = ++uid;
    p.flow = flow.reversed();
    p.size_bytes = 64;
    net::TcpHeader h;
    h.is_ack = true;
    h.ack = 1200;
    p.header = h;
    p.sent_time = sim.now();
    ap->from_client(std::move(p));
  }

  /// Whether `flow`'s Fortune Teller saw a departure in its rate window.
  bool fed(const net::FlowId& flow) {
    core::ZhugeFlow* zf = ap->zhuge_flow(flow);
    EXPECT_NE(zf, nullptr);
    if (zf == nullptr) return false;
    return zf->fortune_teller().tx_rate_bps(sim.now()) !=
           core::FortuneTellerConfig{}.fallback_rate_bps;
  }

  double rate(const net::FlowId& flow) {
    return ap->zhuge_flow(flow)->fortune_teller().tx_rate_bps(sim.now());
  }

  /// Let every teller's 40 ms rate window run empty.
  void idle() { sim.run_until(sim.now() + Duration::millis(100)); }

  sim::Simulator sim;
  sim::Rng rng{7};
  wireless::Medium medium{sim, rng, {}};
  wireless::Channel fifo_channel{7};
  wireless::Channel fq_channel{7};
  std::vector<net::Packet> to_server;
  std::uint64_t uid = 0;
  std::unique_ptr<AccessPoint> ap;
};

// A shared FIFO feeds every teller riding its station and no other one; an
// fq_codel station feeds each flow its own departures only. Flow churn,
// station quiesce and an optimiser restart keep that true.
TEST(AccessPointIndex, DequeueFeedsExactlyItsOwnStationsTellers) {
  ApRig rig;
  const net::FlowId a1 = tcp_flow(kFifoIp, 6001);
  const net::FlowId a2 = tcp_flow(kFifoIp, 6002);
  const net::FlowId b1 = tcp_flow(kFqIp, 6003);
  const net::FlowId b_plain = tcp_flow(kFqIp, 6004);  // not optimised
  rig.ap->register_rtc_flow(b1);
  rig.ap->register_rtc_flow(a2);
  rig.ap->register_rtc_flow(a1);

  // a1's departures from the FIFO reach a2's teller too, bit for bit.
  rig.data(a1, 20);
  EXPECT_TRUE(rig.fed(a1));
  EXPECT_TRUE(rig.fed(a2));
  EXPECT_EQ(rig.rate(a1), rig.rate(a2));
  EXPECT_FALSE(rig.fed(b1));

  // fq_codel: another flow's departures do not reach b1; its own do, and
  // nothing on the fq_codel station reaches the FIFO station's tellers.
  rig.idle();
  rig.data(b_plain, 20);
  EXPECT_FALSE(rig.fed(b1));
  EXPECT_FALSE(rig.fed(a1));
  rig.data(b1, 20);
  EXPECT_TRUE(rig.fed(b1));
  EXPECT_FALSE(rig.fed(a1));
  EXPECT_FALSE(rig.fed(a2));

  // Restart: every optimiser is rebuilt, and the teller lists with them.
  rig.idle();
  rig.ap->restart_optimizer();
  EXPECT_FALSE(rig.fed(a1));
  rig.data(a2, 20);
  EXPECT_TRUE(rig.fed(a1));
  EXPECT_TRUE(rig.fed(a2));
  EXPECT_EQ(rig.rate(a1), rig.rate(a2));
  EXPECT_FALSE(rig.fed(b1));

  // Quiesce the fq_codel station: its flow goes, the FIFO station's stay.
  rig.idle();
  rig.ap->unregister_station(kFqIp);
  EXPECT_EQ(rig.ap->zhuge_flow(b1), nullptr);
  EXPECT_EQ(rig.ap->active_station_count(), 1u);
  rig.data(a1, 20);
  EXPECT_TRUE(rig.fed(a1));
  EXPECT_TRUE(rig.fed(a2));

  // One flow leaves the shared queue: the other still hears it.
  rig.idle();
  rig.ap->unregister_rtc_flow(a2);
  EXPECT_EQ(rig.ap->zhuge_flow(a2), nullptr);
  rig.data(a1, 20);
  EXPECT_TRUE(rig.fed(a1));

  // Re-registering makes it a teller of its station again.
  rig.idle();
  rig.ap->register_rtc_flow(a2);
  rig.data(a1, 20);
  EXPECT_EQ(rig.rate(a1), rig.rate(a2));
}

// flush_feedback() releases held ACKs and ladder_log() lists transitions
// in 5-tuple order, whatever the registration order (and so whatever any
// hash of the flows would give).
TEST(AccessPointIndex, FlushAndLadderLogKeepFiveTupleOrder) {
  ApRig rig;
  const std::vector<net::FlowId> sorted = {tcp_flow(kFifoIp, 6001), tcp_flow(kFifoIp, 6002),
                                           tcp_flow(kFqIp, 6003)};
  // Registration order b, c, a: flow keys b=0, c=1, a=2.
  for (const std::size_t i : {1, 2, 0}) rig.ap->register_rtc_flow(sorted[i]);
  // A data segment creates each flow's out-of-band updater; the ACKs then
  // arrive together, before any release timer can fire.
  for (const std::size_t i : {1, 2, 0}) rig.data(sorted[i], 1);
  for (const std::size_t i : {1, 2, 0}) rig.ack(sorted[i]);
  ASSERT_EQ(rig.to_server.size(), 0u) << "the ACKs should be held";
  EXPECT_EQ(rig.ap->pending_feedback(), 3u);
  EXPECT_EQ(rig.ap->flush_feedback(), 3u);
  ASSERT_EQ(rig.to_server.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.to_server[i].flow.reversed(), sorted[i]) << "release " << i;
  }

  for (const std::size_t i : {1, 2, 0}) {
    rig.ap->zhuge_flow(sorted[i])->force_level(obs::LadderLevel::kHoldOnly);
  }
  const std::vector<obs::LadderTransition> log = rig.ap->ladder_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].flow_key, 2u);
  EXPECT_EQ(log[1].flow_key, 0u);
  EXPECT_EQ(log[2].flow_key, 1u);
}

}  // namespace
}  // namespace zhuge::app
