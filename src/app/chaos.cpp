#include "app/chaos.hpp"

#include <cstdio>
#include <iterator>
#include <memory>
#include <utility>

#include "app/spec.hpp"
#include "app/sweep.hpp"

namespace zhuge::app {

ScenarioSpec chaos_base(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "chaos";
  spec.duration_s = 25.0;
  spec.warmup_s = 5.0;
  spec.seed = seed;
  spec.ap_mode = ApMode::kZhuge;
  spec.series = true;
  spec.stations = {StationGroupSpec{}};
  SpecFlow flow;
  flow.zhuge = true;
  flow.fps = 24.0;
  spec.flows = {flow};
  return spec;
}

namespace {

using fault::Window;
using sim::Duration;
using sim::TimePoint;

TimePoint at(double seconds) {
  return TimePoint::zero() + Duration::from_seconds(seconds);
}

ChaosCase make_case(std::string name, std::uint64_t seed, double start_s,
                    double end_s) {
  ChaosCase c;
  c.name = std::move(name);
  c.spec = chaos_base(seed);
  c.fault_start = at(start_s);
  c.fault_end = at(end_s);
  return c;
}

}  // namespace

std::vector<ChaosCase> standard_chaos_suite(std::uint64_t seed) {
  std::vector<ChaosCase> suite;

  {  // Downlink wireless blackout: the client vanishes for 1.5 s.
    ChaosCase c = make_case("downlink_blackout", seed, 10.0, 11.5);
    fault::FaultPlan f;
    f.downlink_wireless.blackouts = {
        Window{c.fault_start, c.fault_end}};
    // 1.5 s of total loss drops every in-flight packet; give GCC's ramp
    // room before judging recovery (same reasoning as uplink_starvation).
    c.spec.duration_s = 30.0;
    c.post_settle = Duration::seconds(6);
    c.spec.faults = std::make_shared<const fault::FaultPlan>(std::move(f));
    suite.push_back(std::move(c));
  }

  {  // Uplink feedback starvation: every client->AP packet dies for 2 s
     // while downlink data keeps flowing. The watchdog MUST fail open.
    ChaosCase c = make_case("uplink_starvation", seed, 10.0, 12.0);
    fault::FaultPlan f;
    f.uplink_wireless.blackouts = {
        Window{c.fault_start, c.fault_end}};
    c.expect_degrade = true;
    // Two seconds with zero feedback drives GCC to its rate floor; the
    // ramp back is deliberately slow, so judge recovery once it is done.
    c.spec.duration_s = 35.0;
    c.post_settle = Duration::seconds(8);
    c.spec.faults = std::make_shared<const fault::FaultPlan>(std::move(f));
    suite.push_back(std::move(c));
  }

  {  // Gilbert-Elliott burst loss on the WAN downlink for 3 s.
    ChaosCase c = make_case("wan_burst_loss", seed, 10.0, 13.0);
    fault::FaultPlan f;
    f.downlink_wan.burst =
        fault::GilbertElliott{/*p_enter_bad=*/0.02, /*p_exit_bad=*/0.25,
                              /*loss_good=*/0.0, /*loss_bad=*/0.5};
    f.downlink_wan.active = {Window{c.fault_start, c.fault_end}};
    c.spec.faults = std::make_shared<const fault::FaultPlan>(std::move(f));
    suite.push_back(std::move(c));
  }

  {  // Duplication + reordering on the WAN downlink for 3 s: the in-band
     // updater must still emit strictly monotone AP-built TWCC.
    ChaosCase c = make_case("dup_reorder", seed, 10.0, 13.0);
    fault::FaultPlan f;
    f.downlink_wan.dup_prob = 0.10;
    f.downlink_wan.reorder_prob = 0.10;
    f.downlink_wan.reorder_delay = Duration::millis(5);
    f.downlink_wan.active = {Window{c.fault_start, c.fault_end}};
    c.spec.faults = std::make_shared<const fault::FaultPlan>(std::move(f));
    suite.push_back(std::move(c));
  }

  {  // Uplink fade: feedback crosses the wired uplink 60 ms late for 3 s.
    ChaosCase c = make_case("uplink_fade", seed, 10.0, 13.0);
    fault::FaultPlan f;
    f.uplink_wan.fade_delay = Duration::millis(60);
    f.uplink_wan.fades = {Window{c.fault_start, c.fault_end}};
    c.spec.faults = std::make_shared<const fault::FaultPlan>(std::move(f));
    suite.push_back(std::move(c));
  }

  {  // Mid-flow AP optimiser restart: all ZhugeFlow state wiped at 11 s.
    ChaosCase c = make_case("ap_restart", seed, 11.0, 11.0);
    fault::FaultPlan f;
    f.ap_restarts = {c.fault_start};
    c.spec.faults = std::make_shared<const fault::FaultPlan>(std::move(f));
    suite.push_back(std::move(c));
  }

  {  // AP clock steps 300 ms forward at 10.5 s and back at 12 s.
    ChaosCase c = make_case("clock_jump", seed, 10.5, 12.0);
    fault::FaultPlan f;
    f.clock_jumps = {
        fault::ClockJump{c.fault_start, Duration::millis(300)},
        fault::ClockJump{c.fault_end, Duration::millis(-300)}};
    c.spec.faults = std::make_shared<const fault::FaultPlan>(std::move(f));
    suite.push_back(std::move(c));
  }

  return suite;
}

ChaosVerdict run_chaos_case(const ChaosCase& c, obs::Attribution* attrib_out) {
  ChaosVerdict v;
  v.name = c.name;

  const MultiStationResult r = run_multi_station(c.spec);
  if (attrib_out != nullptr) attrib_out->merge(r.attrib);

  // Goodput recovery: compare the steady window just before the fault
  // against the window after the fault cleared and the CCA had 2 s to
  // settle. Both windows avoid warmup and the fault itself.
  const TimePoint pre_from = std::max(at(c.spec.warmup_s),
                                     c.fault_start - Duration::seconds(3));
  const TimePoint post_from = c.fault_end + c.post_settle;
  const TimePoint run_end = at(c.spec.duration_s);
  v.pre_fault_goodput_bps =
      r.series.goodput_bps.time_weighted_mean(pre_from, c.fault_start);
  v.post_fault_goodput_bps =
      r.series.goodput_bps.time_weighted_mean(post_from, run_end);
  v.recovery_ratio = v.pre_fault_goodput_bps > 0.0
                         ? v.post_fault_goodput_bps / v.pre_fault_goodput_bps
                         : 0.0;

  v.stranded_acks = r.stranded_acks;
  v.invariant_violations = r.invariant_violations;
  v.degrades = r.robustness.degrades;
  v.reactivates = r.robustness.reactivates;
  v.flushed_acks = r.robustness.flushed_acks + r.flushed_acks_at_end;
  v.fault_drops = r.fault_drops;

  // Recovery SLO from the ladder-transition log plus flow 0's decoded
  // frames (the series carries (decode instant, frame delay) pairs, which
  // is exactly obs::FramePoint).
  obs::SloInputs si;
  si.transitions = r.ladder_log;
  si.fault_start_ns = c.fault_start.count_ns();
  si.fault_end_ns = c.fault_end.count_ns();
  si.run_end_ns = run_end.count_ns();
  si.video_fps = c.spec.flows.front().fps;
  si.frames.reserve(r.series.frame_delay_ms.points().size());
  for (const auto& p : r.series.frame_delay_ms.points()) {
    si.frames.push_back(obs::FramePoint{p.t.count_ns(), p.value});
  }
  v.slo = obs::compute_recovery_slo(si);

  if (v.recovery_ratio < c.min_recovery_ratio) {
    v.failure = "goodput did not recover (ratio " +
                std::to_string(v.recovery_ratio) + " < " +
                std::to_string(c.min_recovery_ratio) + ")";
  } else if (v.stranded_acks != 0) {
    v.failure = std::to_string(v.stranded_acks) +
                " feedback packets stranded in Zhuge state";
  } else if (v.invariant_violations != 0) {
    v.failure = std::to_string(v.invariant_violations) +
                " runtime invariant violations";
  } else if (c.expect_degrade && v.degrades == 0) {
    v.failure = "watchdog never failed open under feedback starvation";
  }
  v.passed = v.failure.empty();
  return v;
}

std::string format_verdict(const ChaosVerdict& v) {
  std::string line = (v.passed ? "PASS " : "FAIL ") + v.name + ": goodput " +
                     std::to_string(v.pre_fault_goodput_bps / 1e6) + " -> " +
                     std::to_string(v.post_fault_goodput_bps / 1e6) +
                     " Mbps (ratio " + std::to_string(v.recovery_ratio) +
                     "), degrades=" + std::to_string(v.degrades) +
                     ", reactivates=" + std::to_string(v.reactivates) +
                     ", flushed=" + std::to_string(v.flushed_acks) +
                     ", fault_drops=" + std::to_string(v.fault_drops) +
                     ", invariants=" + std::to_string(v.invariant_violations);
  if (!v.passed) line += " — " + v.failure;
  return line;
}

std::string verdict_json(const ChaosVerdict& v) {
  const auto num = [](double d) { return Json::make_number(d); };
  const auto cnt = [&num](std::uint64_t c) {
    return num(static_cast<double>(c));
  };
  Json o = Json::make_object();
  o.set("name", Json::make_string(v.name));
  o.set("passed", Json::make_bool(v.passed));
  if (!v.failure.empty()) o.set("failure", Json::make_string(v.failure));
  o.set("pre_fault_goodput_bps", num(v.pre_fault_goodput_bps));
  o.set("post_fault_goodput_bps", num(v.post_fault_goodput_bps));
  o.set("recovery_ratio", num(v.recovery_ratio));
  o.set("stranded_acks", cnt(v.stranded_acks));
  o.set("invariant_violations", cnt(v.invariant_violations));
  o.set("degrades", cnt(v.degrades));
  o.set("reactivates", cnt(v.reactivates));
  o.set("flushed_acks", cnt(v.flushed_acks));
  o.set("fault_drops", cnt(v.fault_drops));

  Json slo = Json::make_object();
  slo.set("triggered", Json::make_bool(v.slo.triggered));
  slo.set("recovered", Json::make_bool(v.slo.recovered));
  slo.set("time_to_detect_ms", num(v.slo.time_to_detect_ms));
  slo.set("time_to_recover_ms", num(v.slo.time_to_recover_ms));
  Json dwell = Json::make_object();
  for (std::size_t i = 0; i < obs::kLadderLevelCount; ++i) {
    dwell.set(obs::ladder_level_name(static_cast<obs::LadderLevel>(i)),
              num(v.slo.dwell_ms[i]));
  }
  slo.set("dwell_ms", std::move(dwell));
  slo.set("deepest", Json::make_string(obs::ladder_level_name(v.slo.deepest)));
  slo.set("escalations", cnt(v.slo.escalations));
  slo.set("step_downs", cnt(v.slo.step_downs));
  slo.set("frames_expected_in_transition",
          cnt(v.slo.frames_expected_in_transition));
  slo.set("frames_decoded_in_transition",
          cnt(v.slo.frames_decoded_in_transition));
  slo.set("frames_lost_in_transition", cnt(v.slo.frames_lost_in_transition));
  slo.set("healthy_p95_ms", num(v.slo.healthy_p95_ms));
  slo.set("post_recovery_p95_ms", num(v.slo.post_recovery_p95_ms));
  slo.set("post_over_healthy_p95", num(v.slo.post_over_healthy_p95));
  o.set("slo", std::move(slo));

  // 64-bit hashes do not round-trip through a JSON double; hex string.
  char fp[19];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(chaos_verdict_fingerprint(v)));
  o.set("fingerprint", Json::make_string(fp));
  return o.dump();
}

// ---------------------------------------------------------------------------
// Chaos matrix
// ---------------------------------------------------------------------------

std::vector<ChaosCase> chaos_matrix(std::uint64_t seed) {
  struct MatrixCca {
    const char* name;
    SpecFlowKind kind;
  };
  static constexpr MatrixCca kCcas[] = {
      {"gcc", SpecFlowKind::kRtpGcc},
      {"cubic", SpecFlowKind::kTcpCubic},
      {"bbr", SpecFlowKind::kTcpBbr},
  };

  struct MatrixProfile {
    const char* name;
    int mcs;
    QdiscKind qdisc;
  };
  static constexpr MatrixProfile kProfiles[] = {
      {"steady", 7, QdiscKind::kFifo},
      {"stressed", 3, QdiscKind::kCoDel},
  };

  // The four feedback-path fault kinds, split across the two control-loop
  // boundaries so the matrix exercises both: total loss and delay spikes
  // hit the client->AP RTCP ingress, duplication and reordering hit the
  // AP-rewritten feedback on its way to the servers.
  enum class FaultKind : std::uint8_t { kLoss, kDup, kReorder, kSpike };
  struct MatrixFault {
    const char* name;
    FaultKind kind;
    double start_s, end_s;     ///< fault window
    double duration_s;         ///< whole-run length
    double settle_s;           ///< post-fault settle before judging goodput
    bool expect_degrade;       ///< the ladder must escalate during the case
  };
  static constexpr MatrixFault kFaults[] = {
      // 2 s of total feedback silence: the watchdog MUST escalate, and the
      // CCA's ramp back from its floor needs the long settle.
      {"fb_loss", FaultKind::kLoss, 10.0, 12.0, 35.0, 8.0, true},
      {"fb_dup", FaultKind::kDup, 10.0, 13.0, 28.0, 4.0, false},
      {"fb_reorder", FaultKind::kReorder, 10.0, 13.0, 28.0, 4.0, false},
      {"fb_spike", FaultKind::kSpike, 10.0, 13.0, 28.0, 4.0, false},
  };

  std::vector<ChaosCase> cases;
  cases.reserve(std::size(kFaults) * std::size(kCcas) * std::size(kProfiles));
  for (const auto& fk : kFaults) {
    for (const auto& cca : kCcas) {
      for (const auto& prof : kProfiles) {
        ChaosCase c = make_case(std::string(fk.name) + "/" + cca.name + "/" +
                                    prof.name,
                                seed, fk.start_s, fk.end_s);
        fault::FaultPlan f;
        c.spec.flows.front().kind = cca.kind;
        c.spec.stations.front().mcs = prof.mcs;
        c.spec.stations.front().qdisc = prof.qdisc;
        c.spec.duration_s = fk.duration_s;
        c.post_settle = Duration::from_seconds(fk.settle_s);
        c.expect_degrade = fk.expect_degrade;
        const Window w{c.fault_start, c.fault_end};
        switch (fk.kind) {
          case FaultKind::kLoss:
            f.uplink_rtcp.loss_prob = 1.0;
            f.uplink_rtcp.active = {w};
            break;
          case FaultKind::kDup:
            f.ap_feedback.dup_prob = 0.3;
            f.ap_feedback.active = {w};
            break;
          case FaultKind::kReorder:
            f.ap_feedback.reorder_prob = 0.3;
            f.ap_feedback.reorder_delay = Duration::millis(10);
            f.ap_feedback.active = {w};
            break;
          case FaultKind::kSpike:
            f.uplink_rtcp.spike_prob = 0.9;
            f.uplink_rtcp.spike_delay = Duration::millis(120);
            f.uplink_rtcp.active = {w};
            break;
        }
        c.spec.faults = std::make_shared<const fault::FaultPlan>(std::move(f));
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

std::uint64_t chaos_verdict_fingerprint(const ChaosVerdict& v) {
  Fnv f;
  f.bytes(v.name.data(), v.name.size());
  f.u64(v.passed ? 1 : 0);
  f.f64(v.pre_fault_goodput_bps);
  f.f64(v.post_fault_goodput_bps);
  f.f64(v.recovery_ratio);
  f.u64(v.stranded_acks);
  f.u64(v.invariant_violations);
  f.u64(v.degrades);
  f.u64(v.reactivates);
  f.u64(v.flushed_acks);
  f.u64(v.fault_drops);
  const obs::RecoverySlo& s = v.slo;
  f.u64(s.triggered ? 1 : 0);
  f.u64(s.recovered ? 1 : 0);
  f.f64(s.time_to_detect_ms);
  f.f64(s.time_to_recover_ms);
  for (const double d : s.dwell_ms) f.f64(d);
  f.u64(static_cast<std::uint64_t>(s.deepest));
  f.u64(s.escalations);
  f.u64(s.step_downs);
  f.u64(s.frames_expected_in_transition);
  f.u64(s.frames_decoded_in_transition);
  f.u64(s.frames_lost_in_transition);
  f.f64(s.healthy_p95_ms);
  f.f64(s.post_recovery_p95_ms);
  f.f64(s.post_over_healthy_p95);
  return f.h;
}

ChaosMatrixResult run_chaos_matrix(const std::vector<ChaosCase>& cases,
                                   unsigned threads) {
  ChaosMatrixResult out;
  out.verdicts.resize(cases.size());
  run_indexed_pool(cases.size(), threads, [&](std::size_t i) {
    out.verdicts[i] = run_chaos_case(cases[i]);
  });
  // Aggregation is serial and in grid order regardless of which worker
  // finished first, so the fingerprint and the SLO rows are stable.
  Fnv chain;
  for (const auto& v : out.verdicts) {
    chain.u64(chaos_verdict_fingerprint(v));
    out.slo.add(v.name, v.slo);
    if (!v.passed) ++out.failed;
  }
  out.fingerprint = chain.h;
  return out;
}

}  // namespace zhuge::app
