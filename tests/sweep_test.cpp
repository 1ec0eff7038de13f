// Tests for the parallel sweep runner: serial vs multi-thread
// bit-identity of per-run results and of the obs sinks the pool merges,
// grid construction and fingerprint sensitivity.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "app/sweep.hpp"
#include "core/ack_scheduler.hpp"
#include "obs/export.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"

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

  const auto serial = run_spec_sweep(grid, 1);
  const auto parallel = run_spec_sweep(grid, 8);
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
  const auto first = run_spec_sweep(grid, 2);
  const auto second = run_spec_sweep(grid, 2);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].fingerprint, second[i].fingerprint);
  }
  EXPECT_NE(first[0].fingerprint, first[1].fingerprint);  // seeds matter
}

#if ZHUGE_OBS_ENABLED  // the hooks compile to nothing under the kill switch
/// Everything a pooled grid leaves in the caller's obs context.
struct PoolSinks {
  /// What each index saw of its own checker right after its first report:
  /// 1 when it records into a context of its own.
  std::vector<std::uint64_t> own_reports;
  std::string metrics_json;
  std::vector<std::string> trace;  ///< one rendered event per entry
  std::uint64_t invariant_total = 0;
  std::vector<obs::InvariantChecker::Violation> violations;
};

/// Turns every obs setting on for one test and restores the old settings
/// and empty sinks afterwards.
struct AllObsOn {
  bool metrics = obs::metrics_enabled();
  bool tracing = obs::tracing_enabled();
  bool invariants = obs::invariants_enabled();
  bool attrib = obs::attrib_enabled();
  AllObsOn() { set(true, true, true, true); }
  ~AllObsOn() { set(metrics, tracing, invariants, attrib); }
  static void set(bool m, bool t, bool i, bool a) {
    obs::reset();
    obs::set_metrics_enabled(m);
    obs::set_tracing_enabled(t);
    obs::set_invariants_enabled(i);
    obs::set_attrib_enabled(a);
  }
};

constexpr std::size_t kPoolIndices = 24;

/// Runs a grid whose every index records through each hook kind — metric
/// counter/gauge/histogram, trace events, a failing invariant — plus a
/// component-level trip (an AckScheduler hold past its cap), then reads
/// back the caller's sinks.
PoolSinks record_pool(unsigned threads) {
  obs::reset();
  PoolSinks out;
  out.own_reports.assign(kPoolIndices, 0);
  run_indexed_pool(kPoolIndices, threads, [&out](std::size_t i) {
    const sim::TimePoint t =
        sim::TimePoint::zero() + sim::Duration::millis(static_cast<std::int64_t>(i));
    ZHUGE_METRIC_ADD("pool.items", i + 1);
    ZHUGE_METRIC_SET("pool.last_index", i);
    ZHUGE_METRIC_OBSERVE("pool.value_us", 10.0 * static_cast<double>(i + 1));
    ZHUGE_INVARIANT(t, "pool.always_false", false, "index " + std::to_string(i));
    out.own_reports[i] = obs::invariants().total();
    ZHUGE_TRACE(t, "pool", "index", {"i", static_cast<double>(i)});
    for (int k = 0; k < 200; ++k) {
      ZHUGE_TRACE(t, "pool", "step", {"i", static_cast<double>(i)},
                  {"k", static_cast<double>(k)});
    }

    sim::Simulator simulator;
    core::AckScheduler sched(simulator, [](net::Packet) {});
    sched.set_max_hold(sim::Duration::millis(10));
    net::Packet p;
    p.uid = i;
    p.size_bytes = 1200;
    sched.hold(std::move(p), t + sim::Duration::millis(100));
    simulator.run();
  });

  std::ostringstream json;
  obs::write_metrics_json(obs::metrics(), json);
  out.metrics_json = json.str();
  obs::tracer().for_each([&out](const obs::TraceEvent& ev) {
    std::string line = std::to_string(ev.t_ns) + " " + ev.component + " " + ev.name;
    for (std::size_t f = 0; f < ev.n_fields; ++f) {
      line += std::string(" ") + ev.fields[f].key + "=" +
              std::to_string(ev.fields[f].value);
    }
    out.trace.push_back(std::move(line));
  });
  out.invariant_total = obs::invariants().total();
  out.violations = obs::invariants().violations();
  return out;
}

TEST(Sweep, PooledRunsRecordLikeSerialRuns) {
  const AllObsOn on;
  const PoolSinks serial = record_pool(1);
  const PoolSinks pooled = record_pool(8);

  // Each index recorded into a context of its own, on any thread count.
  for (std::size_t i = 0; i < kPoolIndices; ++i) {
    EXPECT_EQ(serial.own_reports[i], 1u) << "serial index " << i;
    EXPECT_EQ(pooled.own_reports[i], 1u) << "pooled index " << i;
  }

  // Non-empty, with the values a serial run records.
  EXPECT_NE(serial.metrics_json.find("pool.items"), std::string::npos);
  const std::uint64_t n = kPoolIndices;
  EXPECT_EQ(obs::metrics().counter("pool.items").value(), n * (n + 1) / 2);
  EXPECT_EQ(obs::metrics().gauge("pool.last_index").value(),
            static_cast<double>(n - 1));
  EXPECT_EQ(obs::metrics().histogram("pool.value_us").count(), n);
  EXPECT_EQ(obs::invariants().count("pool.always_false"), n);
  EXPECT_EQ(obs::invariants().count("feedback.hold_bound"), n);
  ASSERT_FALSE(serial.trace.empty());
  ASSERT_FALSE(serial.violations.empty());
  EXPECT_EQ(serial.violations.front().detail, "index 0");

  // The trace holds the index events in grid order.
  std::vector<std::string> index_events;
  for (const std::string& line : pooled.trace) {
    if (line.find(" pool index ") != std::string::npos) index_events.push_back(line);
  }
  ASSERT_EQ(index_events.size(), kPoolIndices);
  for (std::size_t i = 0; i < kPoolIndices; ++i) {
    EXPECT_EQ(index_events[i].rfind(std::to_string(i * 1'000'000) + " ", 0), 0u)
        << index_events[i];
  }

  // Eight workers leave the caller's sinks bit-identical to one.
  EXPECT_EQ(pooled.metrics_json, serial.metrics_json);
  EXPECT_EQ(pooled.trace, serial.trace);
  EXPECT_EQ(pooled.invariant_total, serial.invariant_total);
  EXPECT_EQ(pooled.invariant_total, 2 * n);
  ASSERT_EQ(pooled.violations.size(), serial.violations.size());
  for (std::size_t v = 0; v < serial.violations.size(); ++v) {
    EXPECT_EQ(pooled.violations[v].name, serial.violations[v].name);
    EXPECT_EQ(pooled.violations[v].detail, serial.violations[v].detail);
    EXPECT_EQ(pooled.violations[v].first_t_ms, serial.violations[v].first_t_ms);
    EXPECT_EQ(pooled.violations[v].count, serial.violations[v].count);
  }
}
#endif  // ZHUGE_OBS_ENABLED

}  // namespace
}  // namespace zhuge::app
