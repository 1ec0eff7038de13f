#include "app/chaos.hpp"

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

/// One fault class: when it strikes, how long the run lasts, how long the
/// CCA may settle after it clears before goodput is judged, whether the
/// watchdog must fire, and what it injects over its window.
struct FaultClass {
  const char* name;
  double start_s, end_s;  ///< fault window
  double duration_s;      ///< whole-run length
  double settle_s;        ///< post-fault settle before judging goodput
  bool expect_degrade;    ///< the watchdog must fail open during the case
  void (*inject)(fault::FaultPlan&, const Window&);
};

/// The seven incidents, one per fault class the subsystem models.
constexpr FaultClass kIncidents[] = {
    // Downlink wireless blackout: the client vanishes for 1.5 s. Total
    // loss drops every in-flight packet; give GCC's ramp room before
    // judging recovery (same reasoning as uplink_starvation).
    {"downlink_blackout", 10.0, 11.5, 30.0, 6.0, false,
     [](fault::FaultPlan& f, const Window& w) {
       f.downlink_wireless.blackouts = {w};
     }},
    // Uplink feedback starvation: every client->AP packet dies for 2 s
    // while downlink data keeps flowing. The watchdog MUST fail open. Two
    // seconds with zero feedback drives GCC to its rate floor; the ramp
    // back is deliberately slow, so judge recovery once it is done.
    {"uplink_starvation", 10.0, 12.0, 35.0, 8.0, true,
     [](fault::FaultPlan& f, const Window& w) {
       f.uplink_wireless.blackouts = {w};
     }},
    // Gilbert-Elliott burst loss on the WAN downlink for 3 s.
    {"wan_burst_loss", 10.0, 13.0, 25.0, 2.0, false,
     [](fault::FaultPlan& f, const Window& w) {
       f.downlink_wan.burst =
           fault::GilbertElliott{/*p_enter_bad=*/0.02, /*p_exit_bad=*/0.25,
                                 /*loss_good=*/0.0, /*loss_bad=*/0.5};
       f.downlink_wan.active = {w};
     }},
    // Duplication + reordering on the WAN downlink for 3 s: the in-band
    // updater must still emit strictly monotone AP-built TWCC.
    {"dup_reorder", 10.0, 13.0, 25.0, 2.0, false,
     [](fault::FaultPlan& f, const Window& w) {
       f.downlink_wan.dup_prob = 0.10;
       f.downlink_wan.reorder_prob = 0.10;
       f.downlink_wan.reorder_delay = Duration::millis(5);
       f.downlink_wan.active = {w};
     }},
    // Uplink fade: feedback crosses the wired uplink 60 ms late for 3 s.
    {"uplink_fade", 10.0, 13.0, 25.0, 2.0, false,
     [](fault::FaultPlan& f, const Window& w) {
       f.uplink_wan.fade_delay = Duration::millis(60);
       f.uplink_wan.fades = {w};
     }},
    // Mid-flow AP optimiser restart: all ZhugeFlow state wiped at 11 s.
    {"ap_restart", 11.0, 11.0, 25.0, 2.0, false,
     [](fault::FaultPlan& f, const Window& w) { f.ap_restarts = {w.start}; }},
    // AP clock steps 300 ms forward at 10.5 s and back at 12 s.
    {"clock_jump", 10.5, 12.0, 25.0, 2.0, false,
     [](fault::FaultPlan& f, const Window& w) {
       f.clock_jumps = {fault::ClockJump{w.start, Duration::millis(300)},
                        fault::ClockJump{w.end, Duration::millis(-300)}};
     }},
};

/// The four feedback-path fault kinds, split across the two control-loop
/// boundaries so the matrix exercises both: total loss and delay spikes
/// hit the client->AP RTCP ingress, duplication and reordering hit the
/// AP-rewritten feedback on its way to the servers.
constexpr FaultClass kFeedbackFaults[] = {
    // 2 s of total feedback silence: the watchdog MUST escalate, and the
    // CCA's ramp back from its floor needs the long settle.
    {"fb_loss", 10.0, 12.0, 35.0, 8.0, true,
     [](fault::FaultPlan& f, const Window& w) {
       f.uplink_rtcp.loss_prob = 1.0;
       f.uplink_rtcp.active = {w};
     }},
    {"fb_dup", 10.0, 13.0, 28.0, 4.0, false,
     [](fault::FaultPlan& f, const Window& w) {
       f.ap_feedback.dup_prob = 0.3;
       f.ap_feedback.active = {w};
     }},
    {"fb_reorder", 10.0, 13.0, 28.0, 4.0, false,
     [](fault::FaultPlan& f, const Window& w) {
       f.ap_feedback.reorder_prob = 0.3;
       f.ap_feedback.reorder_delay = Duration::millis(10);
       f.ap_feedback.active = {w};
     }},
    {"fb_spike", 10.0, 13.0, 28.0, 4.0, false,
     [](fault::FaultPlan& f, const Window& w) {
       f.uplink_rtcp.spike_prob = 0.9;
       f.uplink_rtcp.spike_delay = Duration::millis(120);
       f.uplink_rtcp.active = {w};
     }},
};

/// The matrix's sender CCAs and channel profiles.
constexpr struct {
  const char* name;
  SpecFlowKind kind;
} kCcas[] = {
    {"gcc", SpecFlowKind::kRtpGcc},
    {"cubic", SpecFlowKind::kTcpCubic},
    {"bbr", SpecFlowKind::kTcpBbr},
};
constexpr struct {
  const char* name;
  int mcs;
  QdiscKind qdisc;
} kProfiles[] = {
    {"steady", 7, QdiscKind::kFifo},
    {"stressed", 3, QdiscKind::kCoDel},
};

/// The healthy baseline at `seed` with `fc` injected.
ChaosCase make_case(std::string name, std::uint64_t seed, const FaultClass& fc) {
  ChaosCase c;
  c.name = std::move(name);
  c.spec = chaos_base(seed);
  c.spec.duration_s = fc.duration_s;
  c.fault_start = at(fc.start_s);
  c.fault_end = at(fc.end_s);
  c.post_settle = Duration::from_seconds(fc.settle_s);
  c.expect_degrade = fc.expect_degrade;
  fault::FaultPlan f;
  fc.inject(f, Window{c.fault_start, c.fault_end});
  c.spec.faults = std::make_shared<const fault::FaultPlan>(std::move(f));
  return c;
}

}  // namespace

std::vector<ChaosCase> chaos_suite(std::uint64_t seed) {
  std::vector<ChaosCase> suite;
  for (const FaultClass& fc : kIncidents) {
    suite.push_back(make_case(fc.name, seed, fc));
  }
  for (const FaultClass& fc : kFeedbackFaults) {
    for (const auto& cca : kCcas) {
      for (const auto& prof : kProfiles) {
        ChaosCase c = make_case(
            std::string(fc.name) + "/" + cca.name + "/" + prof.name, seed, fc);
        c.spec.flows.front().kind = cca.kind;
        c.spec.stations.front().mcs = prof.mcs;
        c.spec.stations.front().qdisc = prof.qdisc;
        suite.push_back(std::move(c));
      }
    }
  }
  return suite;
}

ChaosVerdict run_chaos_case(const ChaosCase& c) {
  ChaosVerdict v;
  v.name = c.name;

  MultiStationResult r = run_multi_station(c.spec);
  v.attrib = std::move(r.attrib);

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

ChaosSuiteResult run_chaos_suite(const std::vector<ChaosCase>& cases,
                                 unsigned threads) {
  ChaosSuiteResult out;
  out.verdicts.resize(cases.size());
  run_indexed_pool(cases.size(), threads, [&](std::size_t i) {
    out.verdicts[i] = run_chaos_case(cases[i]);
  });
  // Aggregation is serial and in case order regardless of which worker
  // finished first, so the fingerprint, the SLO rows and the attribution
  // are stable.
  Fnv chain;
  for (const ChaosVerdict& v : out.verdicts) {
    chain.u64(chaos_verdict_fingerprint(v));
    out.slo.add(v.name, v.slo);
    out.attrib.merge(v.attrib);
    if (!v.passed) ++out.failed;
  }
  out.fingerprint = chain.h;
  return out;
}

}  // namespace zhuge::app
