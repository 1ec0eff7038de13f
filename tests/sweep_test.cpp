// Tests for the parallel sweep runner: serial vs multi-thread
// bit-identity of per-run results, grid construction, fingerprint
// sensitivity, obs-switch hygiene, and metric aggregation.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "app/sweep.hpp"
#include "obs/metrics.hpp"

namespace zhuge::app {
namespace {

/// One W1-trace station carrying one flow; `duration_s` comfortably
/// exceeds the warmup so post-warmup distributions are populated and
/// fingerprints reflect real traffic.
ScenarioSpec small_spec(std::string name, ApMode mode, SpecFlowKind kind,
                        double duration_s = 8.0) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.duration_s = duration_s;
  spec.warmup_s = 2.0;
  spec.ap_mode = mode;
  StationGroupSpec station;
  station.trace_class = trace::TraceKind::kRestaurantWifi;
  spec.stations = {station};
  SpecFlow flow;
  flow.kind = kind;
  flow.zhuge = true;
  spec.flows = {flow};
  return spec;
}

/// 4 specs x 4 seeds: the 16-point grid the pool-identity check runs.
std::vector<SpecPoint> sixteen_point_grid() {
  std::vector<SpecPoint> grid;
  for (const ScenarioSpec& spec :
       {small_spec("rtp-none", ApMode::kNone, SpecFlowKind::kRtpGcc),
        small_spec("rtp-zhuge", ApMode::kZhuge, SpecFlowKind::kRtpGcc),
        small_spec("tcp-fastack", ApMode::kFastAck, SpecFlowKind::kTcpCopa),
        small_spec("tcp-zhuge", ApMode::kZhuge, SpecFlowKind::kTcpCopa)}) {
    const auto points = cross_spec_seeds(spec, {1, 2, 3, 4});
    grid.insert(grid.end(), points.begin(), points.end());
  }
  return grid;
}

TEST(Sweep, CrossSpecSeedsBuildsNamedGrid) {
  const auto grid = cross_spec_seeds(
      small_spec("a", ApMode::kNone, SpecFlowKind::kRtpGcc), {7, 9});
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0].name, "a/s7");
  EXPECT_EQ(grid[0].seed, 7u);
  EXPECT_EQ(grid[1].name, "a/s9");
  EXPECT_EQ(grid[1].seed, 9u);
}

TEST(Sweep, EightThreadsBitIdenticalToSerial) {
  // Every per-run fingerprint from an 8-thread sweep of the 16-point grid
  // must equal the serial run's, bit for bit.
  const auto grid = sixteen_point_grid();
  ASSERT_EQ(grid.size(), 16u);

  const auto serial = run_spec_sweep(grid, {.threads = 1});
  const auto parallel = run_spec_sweep(grid, {.threads = 8});
  ASSERT_EQ(serial.size(), 16u);
  ASSERT_EQ(parallel.size(), 16u);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(parallel[i].name, serial[i].name);
    EXPECT_EQ(parallel[i].fingerprint, serial[i].fingerprint)
        << grid[i].name << ": parallel run diverged from serial";
    // Fingerprints compare hashed state; spot-check raw fields too so a
    // fingerprint bug cannot mask a real divergence.
    EXPECT_EQ(parallel[i].result.events_executed,
              serial[i].result.events_executed);
    EXPECT_EQ(parallel[i].result.flows.front().goodput_bps,
              serial[i].result.flows.front().goodput_bps);
    EXPECT_EQ(parallel[i].result.flows.front().frames_decoded,
              serial[i].result.flows.front().frames_decoded);
  }

  // Sanity: the grid is not degenerate — seeds and specs genuinely change
  // the outcome.
  std::set<std::uint64_t> distinct;
  for (const auto& run : serial) distinct.insert(run.fingerprint);
  EXPECT_GE(distinct.size(), 12u);
}

TEST(Sweep, RepeatedRunsAreReproducible) {
  const auto grid = cross_spec_seeds(
      small_spec("rtp-zhuge", ApMode::kZhuge, SpecFlowKind::kRtpGcc, 6.0), {1, 2});
  const auto first = run_spec_sweep(grid, {.threads = 2});
  const auto second = run_spec_sweep(grid, {.threads = 2});
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].fingerprint, second[i].fingerprint);
  }
  EXPECT_NE(first[0].fingerprint, first[1].fingerprint);  // seeds matter
}

TEST(Sweep, RunSpecSweepRestoresObsSwitches) {
  const bool metrics_was = obs::metrics_enabled();
  const bool tracing_was = obs::tracing_enabled();
  const bool invariants_was = obs::invariants_enabled();

  ScenarioSpec tiny = small_spec("tiny", ApMode::kNone, SpecFlowKind::kRtpGcc, 1.0);
  tiny.warmup_s = 0.0;
  (void)run_spec_sweep(cross_spec_seeds(tiny, {1}), {.threads = 2});

  EXPECT_EQ(obs::metrics_enabled(), metrics_was);
  EXPECT_EQ(obs::tracing_enabled(), tracing_was);
  EXPECT_EQ(obs::invariants_enabled(), invariants_was);
}

TEST(Sweep, ExportAggregatesPerRunMetrics) {
  const auto runs = run_spec_sweep(
      cross_spec_seeds(
          small_spec("steady", ApMode::kNone, SpecFlowKind::kRtpGcc, 6.0), {1, 2}),
      {.threads = 2});

  obs::Registry registry;
  export_spec_sweep_metrics(runs, registry);
  EXPECT_EQ(registry.counter("mssweep.total.runs").value(), 2u);
  EXPECT_GT(registry.counter("mssweep.total.events").value(), 0u);
  EXPECT_GT(registry.gauge("mssweep.steady/s1.frame_delay_p99_ms").value(), 0.0);
  EXPECT_GT(registry.gauge("mssweep.steady/s2.rtt_p50_ms").value(), 0.0);
  EXPECT_EQ(registry.counter("mssweep.steady/s1.events").value(),
            runs[0].result.events_executed);
}

}  // namespace
}  // namespace zhuge::app
