// Resilience properties of the control loop's fail-open machinery
// (ISSUE 7): the graded degradation ladder strictly weakens interventions
// level by level, divergence evidence resets on every ladder move (no
// instant re-trip after a recovery probe), PassThrough is fingerprint-
// identical to running without Zhuge on the dense 64-station churn spec,
// feedback-path fault injection is bit-identical across repeats and
// diverges across seeds, and the chaos suite's feedback-path matrix is
// serial-vs-parallel bit-identical with the recovery SLO of one canonical
// case pinned as a golden anchor.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "app/chaos.hpp"
#include "app/scenario.hpp"
#include "app/spec.hpp"
#include "app/sweep.hpp"
#include "core/zhuge.hpp"
#include "net/packet.hpp"
#include "obs/slo.hpp"
#include "queue/fifo.hpp"
#include "sim/simulator.hpp"

namespace zhuge::app {
namespace {

using net::Packet;
using sim::Duration;
using sim::Simulator;
using sim::TimePoint;
using namespace sim::literals;

TimePoint at(std::int64_t ms) {
  return TimePoint::zero() + Duration::millis(ms);
}

Packet tcp_data(const net::FlowId& flow) {
  Packet p;
  p.flow = flow;
  p.size_bytes = 1240;
  p.header = net::TcpHeader{};
  return p;
}

Packet tcp_ack(const net::FlowId& flow, std::uint64_t uid) {
  Packet p;
  p.uid = uid;
  p.flow = flow.reversed();
  net::TcpHeader h;
  h.is_ack = true;
  p.header = h;
  return p;
}

Packet rtp_data(const net::FlowId& flow, std::uint32_t ssrc,
                std::uint16_t seq) {
  Packet p;
  p.flow = flow;
  p.size_bytes = 1200;
  net::RtpHeader h;
  h.ssrc = ssrc;
  h.seq = seq;
  h.twcc_seq = seq;
  p.header = h;
  return p;
}

Packet client_twcc(const net::FlowId& flow, std::uint32_t ssrc) {
  Packet p;
  p.flow = flow.reversed();
  net::TwccFeedback fb;
  fb.ssrc = ssrc;
  net::RtcpHeader h;
  h.payload = fb;
  p.header = h;
  return p;
}

// ---------------------------------------------------------------------------
// Ladder monotonicity
// ---------------------------------------------------------------------------

/// What one pinned ladder level did to a fixed traffic pattern.
struct LevelProbe {
  bool annotates = false;   ///< predicted_delay_ms written on downlink data
  bool commits = false;     ///< fortunes recorded for the feedback updaters
  bool drops_twcc = false;  ///< client TWCC replaced (in-band intervention)
  bool delays_ack = false;  ///< OOB ACK held on the release queue
  double predicted_ms = -1.0;

  /// Interventions still active: the ladder is monotone iff this never
  /// increases while walking Full -> PassThrough.
  [[nodiscard]] int strength() const {
    return int(annotates) + int(commits) + int(drops_twcc) + int(delays_ack);
  }
};

/// Drive the identical downlink/uplink sequence through a ZhugeFlow pinned
/// at `level` and record which interventions fired.
LevelProbe probe_level(obs::LadderLevel level) {
  Simulator sim;
  sim::Rng rng(1);
  net::FlowId flow{1, 100, 5000, 6000, 6};
  core::ZhugeConfig cfg;
  cfg.watchdog.initial_level = level;  // pins the ladder
  core::ZhugeFlow zf(sim, rng, flow, cfg, [](Packet) {});
  queue::DropTailFifo q(-1);
  LevelProbe out;

  sim.schedule_at(at(0), [&] {
    // One own-flow departure (so ClampedPredict is not stale) and a deep
    // backlog: ~200 x 1240 B over the 10 Mb/s fallback rate predicts
    // ~200 ms of queueing, comfortably above the 100 ms clamp.
    zf.on_dequeue(tcp_data(flow), sim.now());
    for (int i = 0; i < 200; ++i) q.enqueue(tcp_data(flow), sim.now());
  });
  sim.schedule_at(at(10), [&] {
    Packet d = tcp_data(flow);
    zf.on_downlink(d, q);
    out.annotates = d.predicted_delay_ms >= 0.0;
    out.predicted_ms = d.predicted_delay_ms;
    Packet r = rtp_data(flow, 7, 1);
    zf.on_downlink(r, q);
    out.commits = zf.pending_feedback() > 0;
  });
  sim.schedule_at(at(20), [&] {
    out.delays_ack =
        zf.handle_uplink(tcp_ack(flow, 1)) == core::UplinkAction::kDelay;
    out.drops_twcc =
        zf.handle_uplink(client_twcc(flow, 7)) == core::UplinkAction::kDrop;
  });
  sim.run();
  return out;
}

TEST(ResilienceLadder, EachLevelStrictlyWeakensInterventions) {
  const LevelProbe full = probe_level(obs::LadderLevel::kFull);
  const LevelProbe clamped = probe_level(obs::LadderLevel::kClampedPredict);
  const LevelProbe hold = probe_level(obs::LadderLevel::kHoldOnly);
  const LevelProbe pass = probe_level(obs::LadderLevel::kPassThrough);

  // Full: every intervention active, prediction unclamped (> 100 ms here).
  EXPECT_TRUE(full.annotates);
  EXPECT_TRUE(full.commits);
  EXPECT_TRUE(full.drops_twcc);
  EXPECT_TRUE(full.delays_ack);
  EXPECT_GT(full.predicted_ms, 100.0);

  // ClampedPredict: same interventions, but the fortune is ceiling-bound.
  EXPECT_TRUE(clamped.annotates);
  EXPECT_TRUE(clamped.commits);
  EXPECT_TRUE(clamped.drops_twcc);
  EXPECT_TRUE(clamped.delays_ack);
  EXPECT_GT(clamped.predicted_ms, 0.0);
  EXPECT_LE(clamped.predicted_ms, 100.0);
  EXPECT_LT(clamped.predicted_ms, full.predicted_ms);

  // HoldOnly: still observing (annotation), but commits/drops/delays off.
  EXPECT_TRUE(hold.annotates);
  EXPECT_FALSE(hold.commits);
  EXPECT_FALSE(hold.drops_twcc);
  EXPECT_FALSE(hold.delays_ack);

  // PassThrough: byte-identical to no Zhuge — not even an annotation.
  EXPECT_FALSE(pass.annotates);
  EXPECT_FALSE(pass.commits);
  EXPECT_FALSE(pass.drops_twcc);
  EXPECT_FALSE(pass.delays_ack);
  EXPECT_DOUBLE_EQ(pass.predicted_ms, -1.0);

  // The monotone property itself: walking up the ladder never turns an
  // intervention back on.
  EXPECT_GE(full.strength(), clamped.strength());
  EXPECT_GT(clamped.strength(), hold.strength());
  EXPECT_GT(hold.strength(), pass.strength());
}

// ---------------------------------------------------------------------------
// Divergence evidence resets on every ladder move
// ---------------------------------------------------------------------------

// Regression for the reactivation flap: divergence samples gathered under
// one intervention regime said nothing about the next one, but used to
// survive a recovery probe — five stale samples re-tripped the watchdog
// the instant it stepped down. Evidence must reset on every move.
TEST(ResilienceLadder, DivergenceEvidenceResetsAcrossRecovery) {
  Simulator sim;
  sim::Rng rng(1);
  net::FlowId flow{1, 100, 5000, 6000, 6};
  core::ZhugeConfig cfg;
  cfg.watchdog.divergence_threshold_ms = 50.0;
  cfg.watchdog.divergence_alpha = 0.5;
  cfg.watchdog.min_divergence_samples = 5;
  cfg.watchdog.recovery_settle = 100_ms;
  core::ZhugeFlow zf(sim, rng, flow, cfg, [](Packet) {});

  const auto divergent_sample = [&] {
    Packet p = tcp_data(flow);
    p.predicted_delay_ms = 0.0;           // fortune said no queueing...
    p.ap_enqueue_time = sim.now() - 200_ms;  // ...packet waited 200 ms
    zf.on_dequeue(p, sim.now());
  };
  const auto healthy_sample = [&] {
    Packet p = tcp_data(flow);
    p.predicted_delay_ms = 30.0;          // fortune matched reality
    p.ap_enqueue_time = sim.now() - 30_ms;
    zf.on_dequeue(p, sim.now());
  };

  // Sustained divergence escalates (floor: ClampedPredict).
  sim.schedule_at(at(200), [&] {
    for (int i = 0; i < 6; ++i) divergent_sample();
    zf.check_watchdog(sim.now());
    EXPECT_EQ(zf.level(), obs::LadderLevel::kClampedPredict);
    EXPECT_EQ(zf.degrade_count(), 1u);
  });

  // One healthy sample + live uplink after the settle period: the probe
  // must step down. Were the six divergent samples still on the books,
  // divergence_tripped() would hold the flow degraded here.
  sim.schedule_at(at(300), [&] {
    (void)zf.handle_uplink(tcp_ack(flow, 1));
    healthy_sample();
    zf.check_watchdog(sim.now());
    EXPECT_EQ(zf.level(), obs::LadderLevel::kFull);
    EXPECT_EQ(zf.reactivate_count(), 1u);
  });

  // Back at Full with healthy traffic: no flap back up the ladder, and the
  // step-down itself also wiped the evidence counter.
  sim.schedule_at(at(320), [&] {
    EXPECT_EQ(zf.divergence_samples(), 0u);
    for (int i = 0; i < 6; ++i) healthy_sample();
    zf.check_watchdog(sim.now());
    EXPECT_EQ(zf.level(), obs::LadderLevel::kFull);
  });

  sim.run();
  EXPECT_EQ(zf.degrade_count(), 1u);
  EXPECT_EQ(zf.reactivate_count(), 1u);
}

// ---------------------------------------------------------------------------
// Scenario-level equivalence and determinism
// ---------------------------------------------------------------------------

ScenarioSpec parse_or_die(const char* text) {
  std::string err;
  const auto spec = parse_scenario_spec(text, &err);
  EXPECT_TRUE(spec.has_value()) << err;
  return *spec;
}

/// The acceptance-criterion spec (multistation_test.cpp's dense_spec).
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

/// Small two-station spec with faults on both feedback-path boundaries.
ScenarioSpec faulted_spec() {
  return parse_or_die(R"({
    "name": "faulted",
    "duration_s": 8,
    "warmup_s": 1,
    "seed": 3,
    "stations": [ { "count": 2, "mcs": 7 } ],
    "flows": [
      { "kind": "rtp_gcc", "station": 0, "zhuge": true },
      { "kind": "tcp_cubic", "station": 1, "zhuge": true }
    ],
    "faults": {
      "ap_feedback": { "dup_prob": 0.2, "reorder_prob": 0.2,
                       "reorder_delay_ms": 8 },
      "uplink_rtcp": { "loss_prob": 0.3, "start_s": 3, "end_s": 5 }
    }
  })");
}

// The ladder's fail-open end state must be indistinguishable from turning
// Zhuge off entirely — pinned PassThrough and ap_mode "none" produce
// bit-identical runs on the dense 64-station churn acceptance spec.
TEST(ResilienceEquivalence, PassThroughMatchesZhugeOffOnDenseChurn) {
  ScenarioSpec pass = dense_spec();
  pass.zhuge.watchdog.initial_level = obs::LadderLevel::kPassThrough;
  ScenarioSpec off = dense_spec();
  off.ap_mode = ApMode::kNone;
  const auto a = run_multi_station(pass);
  const auto b = run_multi_station(off);
  EXPECT_EQ(multi_result_fingerprint(a), multi_result_fingerprint(b));
}

TEST(ResilienceDeterminism, FeedbackFaultsBitIdenticalAcrossRepeats) {
  const ScenarioSpec spec = faulted_spec();
  const auto a = run_multi_station(spec);
  const auto b = run_multi_station(spec);
  EXPECT_EQ(multi_result_fingerprint(a), multi_result_fingerprint(b));
}

TEST(ResilienceDeterminism, FeedbackFaultsDivergeAcrossSeeds) {
  const ScenarioSpec spec = faulted_spec();
  const auto a = run_multi_station(spec, 3);
  const auto b = run_multi_station(spec, 4);
  EXPECT_NE(multi_result_fingerprint(a), multi_result_fingerprint(b));
}

TEST(ResilienceDeterminism, FeedbackFaultsActuallyPerturbTheRun) {
  ScenarioSpec clean = faulted_spec();
  clean.faults = nullptr;
  const auto faulted = run_multi_station(faulted_spec());
  const auto unfaulted = run_multi_station(clean);
  EXPECT_NE(multi_result_fingerprint(faulted),
            multi_result_fingerprint(unfaulted));
}

// ---------------------------------------------------------------------------
// Feedback-path chaos matrix: parallel identity + pinned recovery-SLO anchor
// ---------------------------------------------------------------------------

/// The chaos suite's cases whose name contains `substr`, in suite order.
std::vector<ChaosCase> suite_subset(const std::string& substr) {
  auto cases = chaos_suite(1);
  std::erase_if(cases, [&](const ChaosCase& c) {
    return c.name.find(substr) == std::string::npos;
  });
  return cases;
}

// One CCA row of the matrix (4 fault kinds x 2 profiles) run serially and
// on a 4-thread pool: verdicts — including every SLO number — must chain
// to the same fingerprint, and every case must pass. The full 24-case grid
// is exercised by chaos_run --threads 8 --verify-serial in CI.
TEST(ResilienceMatrix, SerialAndParallelBitIdentical) {
  const auto cases = suite_subset("/gcc/");
  ASSERT_EQ(cases.size(), 8u);
  const auto serial = run_chaos_suite(cases, 1);
  const auto parallel = run_chaos_suite(cases, 4);
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);
  EXPECT_EQ(serial.failed, 0);
  EXPECT_EQ(parallel.failed, 0);
}

// Golden anchor for the canonical matrix case: total uplink-RTCP feedback
// loss under RTP/GCC on the steady channel, seed 1. Pins the degradation
// trajectory (detect -> deepest level -> recover) and the recovery SLO to
// exact values so any behavioural drift in the watchdog, the ladder, or
// the SLO accounting is caught — not just "it still passes".
// Regenerate after *justified* drift with:
//   ./build/tools/chaos_run --case fb_loss/gcc/steady --record case.json
TEST(ResilienceMatrix, RecoverySloGoldenAnchorFbLossGccSteady) {
  const auto cases = suite_subset("fb_loss/gcc/steady");
  ASSERT_EQ(cases.size(), 1u);
  const auto res = run_chaos_suite(cases, 1);
  ASSERT_EQ(res.verdicts.size(), 1u);
  const ChaosVerdict& v = res.verdicts[0];

  EXPECT_TRUE(v.passed) << v.failure;
  EXPECT_EQ(v.degrades, 2u);
  EXPECT_EQ(v.reactivates, 3u);
  EXPECT_EQ(v.flushed_acks, 2u);
  EXPECT_EQ(v.fault_drops, 65u);
  EXPECT_EQ(v.stranded_acks, 0u);
  EXPECT_NEAR(v.recovery_ratio, 1.01499736, 1e-6);

  EXPECT_TRUE(v.slo.triggered);
  EXPECT_TRUE(v.slo.recovered);
  EXPECT_EQ(v.slo.deepest, obs::LadderLevel::kPassThrough);
  EXPECT_EQ(v.slo.escalations, 2u);
  EXPECT_EQ(v.slo.step_downs, 3u);
  EXPECT_NEAR(v.slo.time_to_detect_ms, 478.343086, 1e-4);
  EXPECT_NEAR(v.slo.time_to_recover_ms, 522.505744, 1e-4);
  EXPECT_NEAR(v.slo.dwell_ms[int(obs::LadderLevel::kFull)], 22955.837342, 1e-4);
  EXPECT_NEAR(v.slo.dwell_ms[int(obs::LadderLevel::kClampedPredict)],
              252.496020, 1e-4);
  EXPECT_NEAR(v.slo.dwell_ms[int(obs::LadderLevel::kHoldOnly)], 477.945422,
              1e-4);
  EXPECT_NEAR(v.slo.dwell_ms[int(obs::LadderLevel::kPassThrough)],
              1313.721216, 1e-4);
  EXPECT_EQ(v.slo.frames_expected_in_transition, 49u);
  EXPECT_EQ(v.slo.frames_decoded_in_transition, 49u);
  EXPECT_EQ(v.slo.frames_lost_in_transition, 0u);
  EXPECT_NEAR(v.slo.healthy_p95_ms, 25.551050, 1e-4);
  EXPECT_NEAR(v.slo.post_recovery_p95_ms, 25.508791, 1e-4);
  EXPECT_NEAR(v.slo.post_over_healthy_p95, 0.998346, 1e-4);

  // Strongest form: the FNV chain over every numeric verdict field.
  EXPECT_EQ(chaos_verdict_fingerprint(v), 0xa75f4ffe4d418b10ull);
}

}  // namespace
}  // namespace zhuge::app
