// Chaos suite: the seven incidents, one per fault class, injected into an
// end-to-end Zhuge run and judged on recovery (goodput back within
// tolerance after the fault clears), zero stranded feedback, and a clean
// invariant checker. Also pins down determinism: a faulty run is exactly
// as reproducible as a clean one, the incidents judge bit-identically on
// one worker and on four, and the suite's case order is fixed.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/chaos.hpp"
#include "app/scenario.hpp"
#include "app/sweep.hpp"
#include "obs/settings.hpp"

namespace zhuge::app {
namespace {

constexpr std::uint64_t kSeed = 11;

const char* const kIncidents[] = {
    "downlink_blackout", "uplink_starvation", "wan_burst_loss", "dup_reorder",
    "uplink_fade",       "ap_restart",        "clock_jump"};

/// The suite's incident cases, selected by name.
std::vector<ChaosCase> incident_cases() {
  auto cases = chaos_suite(kSeed);
  std::erase_if(cases, [](const ChaosCase& c) {
    return std::find(std::begin(kIncidents), std::end(kIncidents), c.name) ==
           std::end(kIncidents);
  });
  return cases;
}

/// The incidents on `threads` workers with the invariant checker forced on
/// (Release builds default it off).
ChaosSuiteResult run_incidents(unsigned threads) {
  const bool prev = obs::invariants_enabled();
  obs::set_invariants_enabled(true);
  ChaosSuiteResult res = run_chaos_suite(incident_cases(), threads);
  obs::set_invariants_enabled(prev);
  return res;
}

/// One incident's verdict from a pooled run, shared by the tests.
ChaosVerdict verdict(const std::string& name) {
  static const ChaosSuiteResult pooled = run_incidents(4);
  for (const ChaosVerdict& v : pooled.verdicts) {
    if (v.name == name) return v;
  }
  ADD_FAILURE() << "no chaos case named " << name;
  return {};
}

/// The named case of the suite.
ChaosCase named_case(const std::string& name) {
  for (ChaosCase& c : chaos_suite(kSeed)) {
    if (c.name == name) return c;
  }
  ADD_FAILURE() << "no chaos case named " << name;
  return {};
}

TEST(Chaos, DownlinkBlackoutRecovers) {
  const ChaosVerdict v = verdict("downlink_blackout");
  EXPECT_TRUE(v.passed) << format_verdict(v);
}

TEST(Chaos, UplinkStarvationFailsOpenAndRecovers) {
  const ChaosVerdict v = verdict("uplink_starvation");
  EXPECT_TRUE(v.passed) << format_verdict(v);
  EXPECT_GE(v.degrades, 1u);    // the watchdog actually fired
  EXPECT_GE(v.reactivates, 1u); // and the flow came back
}

TEST(Chaos, WanBurstLossRecovers) {
  const ChaosVerdict v = verdict("wan_burst_loss");
  EXPECT_TRUE(v.passed) << format_verdict(v);
  EXPECT_GT(v.fault_drops, 0u);  // the fault was actually injected
}

TEST(Chaos, DuplicationAndReorderingKeepTwccMonotone) {
  const ChaosVerdict v = verdict("dup_reorder");
  EXPECT_TRUE(v.passed) << format_verdict(v);
}

TEST(Chaos, UplinkFadeRecovers) {
  const ChaosVerdict v = verdict("uplink_fade");
  EXPECT_TRUE(v.passed) << format_verdict(v);
}

TEST(Chaos, ApRestartMidFlowRecovers) {
  const ChaosVerdict v = verdict("ap_restart");
  EXPECT_TRUE(v.passed) << format_verdict(v);
}

TEST(Chaos, ClockJumpsRecover) {
  const ChaosVerdict v = verdict("clock_jump");
  EXPECT_TRUE(v.passed) << format_verdict(v);
}

// The incidents on the pool judge exactly as one by one on the calling
// thread: every verdict fingerprint (SLO numbers included) and the chain.
TEST(Chaos, IncidentsJudgeBitIdenticallyOnOneAndFourWorkers) {
  const ChaosSuiteResult serial = run_incidents(1);
  const ChaosSuiteResult pooled = run_incidents(4);
  ASSERT_EQ(serial.verdicts.size(), std::size(kIncidents));
  ASSERT_EQ(pooled.verdicts.size(), std::size(kIncidents));
  for (std::size_t i = 0; i < serial.verdicts.size(); ++i) {
    EXPECT_EQ(pooled.verdicts[i].name, kIncidents[i]);
    EXPECT_EQ(chaos_verdict_fingerprint(pooled.verdicts[i]),
              chaos_verdict_fingerprint(serial.verdicts[i]))
        << kIncidents[i];
  }
  EXPECT_EQ(pooled.fingerprint, serial.fingerprint);
  EXPECT_EQ(pooled.failed, 0);
}

// One list in one fixed order: the seven incidents, then the 24-case
// feedback-path matrix nested fault kind > CCA > profile. A name filter
// keeps this order, so the old incident-only and matrix-only selections
// chain to the fingerprints they always had.
TEST(Chaos, SuiteHoldsThirtyOneUniquelyNamedCasesInFixedOrder) {
  std::vector<std::string> expected(std::begin(kIncidents),
                                    std::end(kIncidents));
  for (const char* fault : {"fb_loss", "fb_dup", "fb_reorder", "fb_spike"}) {
    for (const char* cca : {"gcc", "cubic", "bbr"}) {
      for (const char* profile : {"steady", "stressed"}) {
        expected.push_back(std::string(fault) + "/" + cca + "/" + profile);
      }
    }
  }
  std::vector<std::string> names;
  std::set<std::string> unique;
  for (const ChaosCase& c : chaos_suite(1)) {
    names.push_back(c.name);
    unique.insert(c.name);
  }
  EXPECT_EQ(names.size(), 31u);
  EXPECT_EQ(unique.size(), names.size());
  EXPECT_EQ(names, expected);
}

TEST(Chaos, FaultyRunsAreDeterministic) {
  // Same (spec, seed) must give a bit-identical faulty run: the fault
  // substreams may not perturb (or be perturbed by) the rest of the sim.
  const ChaosCase chosen = named_case("wan_burst_loss");
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
  const ChaosCase chosen = named_case("downlink_blackout");
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
