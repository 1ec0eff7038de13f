// Chaos suite: every fault class from the standard suite injected into an
// end-to-end Zhuge run, judged on recovery (goodput back within tolerance
// after the fault clears), zero stranded feedback, and a clean invariant
// checker. Also pins down determinism: a faulty run is exactly as
// reproducible as a clean one.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "app/chaos.hpp"
#include "app/scenario.hpp"
#include "app/sweep.hpp"
#include "obs/invariants.hpp"

namespace zhuge::app {
namespace {

constexpr std::uint64_t kSeed = 11;

/// Run one named case from the standard suite with the invariant checker
/// forced on (Release builds default it off).
ChaosVerdict run_named(const std::string& name) {
  const bool prev = obs::invariants_enabled();
  obs::set_invariants_enabled(true);
  obs::invariants().clear();
  ChaosVerdict v;
  bool found = false;
  for (const ChaosCase& c : standard_chaos_suite(kSeed)) {
    if (c.name == name) {
      v = run_chaos_case(c);
      found = true;
      break;
    }
  }
  obs::set_invariants_enabled(prev);
  EXPECT_TRUE(found) << "no chaos case named " << name;
  return v;
}

TEST(Chaos, DownlinkBlackoutRecovers) {
  const ChaosVerdict v = run_named("downlink_blackout");
  EXPECT_TRUE(v.passed) << format_verdict(v);
}

TEST(Chaos, UplinkStarvationFailsOpenAndRecovers) {
  const ChaosVerdict v = run_named("uplink_starvation");
  EXPECT_TRUE(v.passed) << format_verdict(v);
  EXPECT_GE(v.degrades, 1u);    // the watchdog actually fired
  EXPECT_GE(v.reactivates, 1u); // and the flow came back
}

TEST(Chaos, WanBurstLossRecovers) {
  const ChaosVerdict v = run_named("wan_burst_loss");
  EXPECT_TRUE(v.passed) << format_verdict(v);
  EXPECT_GT(v.fault_drops, 0u);  // the fault was actually injected
}

TEST(Chaos, DuplicationAndReorderingKeepTwccMonotone) {
  const ChaosVerdict v = run_named("dup_reorder");
  EXPECT_TRUE(v.passed) << format_verdict(v);
}

TEST(Chaos, UplinkFadeRecovers) {
  const ChaosVerdict v = run_named("uplink_fade");
  EXPECT_TRUE(v.passed) << format_verdict(v);
}

TEST(Chaos, ApRestartMidFlowRecovers) {
  const ChaosVerdict v = run_named("ap_restart");
  EXPECT_TRUE(v.passed) << format_verdict(v);
}

TEST(Chaos, ClockJumpsRecover) {
  const ChaosVerdict v = run_named("clock_jump");
  EXPECT_TRUE(v.passed) << format_verdict(v);
}

TEST(Chaos, FaultyRunsAreDeterministic) {
  // Same (spec, seed) must give a bit-identical faulty run: the fault
  // substreams may not perturb (or be perturbed by) the rest of the sim.
  ChaosCase chosen;
  for (const ChaosCase& c : standard_chaos_suite(kSeed)) {
    if (c.name == "wan_burst_loss") chosen = c;
  }
  const MultiStationResult a = run_multi_station(chosen.spec);
  const MultiStationResult b = run_multi_station(chosen.spec);
  EXPECT_GT(a.fault_drops, 0u);
  EXPECT_EQ(multi_result_fingerprint(a), multi_result_fingerprint(b));
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.fault_drops, b.fault_drops);
  EXPECT_DOUBLE_EQ(a.flows.front().goodput_bps, b.flows.front().goodput_bps);
}

TEST(Chaos, CleanRunUnperturbedByFaultPlanScaffolding) {
  // An all-defaults FaultPlan must not change the simulation at all: no
  // injector is created, so the clean run's RNG draws stay identical.
  ChaosCase chosen;
  for (const ChaosCase& c : standard_chaos_suite(kSeed)) {
    if (c.name == "downlink_blackout") chosen = c;
  }
  ScenarioSpec clean = chosen.spec;
  clean.faults = nullptr;
  fault::FaultPlan noop;
  noop.downlink_wan.loss_prob = 0.0;  // explicit no-op
  ScenarioSpec still_clean = chosen.spec;
  still_clean.faults = std::make_shared<const fault::FaultPlan>(noop);
  EXPECT_EQ(multi_result_fingerprint(run_multi_station(clean)),
            multi_result_fingerprint(run_multi_station(still_clean)));
}

}  // namespace
}  // namespace zhuge::app
