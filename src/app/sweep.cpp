#include "app/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/invariants.hpp"
#include "obs/tracer.hpp"

namespace zhuge::app {

namespace {

/// Host-time stopwatch for per-run wall_seconds (excluded from
/// fingerprints; throughput reporting only).
// zlint-allow(banned-api): wall-clock measures host throughput only;
// wall_seconds is deliberately excluded from result fingerprints.
double wall_since(std::chrono::steady_clock::time_point t0) {
  // zlint-allow(banned-api): wall-clock measures host throughput only;
  // wall_seconds is deliberately excluded from result fingerprints.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ObsFreeze::ObsFreeze()
    : metrics_was_(obs::metrics_enabled()),
      tracing_was_(obs::tracing_enabled()),
      invariants_was_(obs::invariants_enabled()),
      attrib_was_(obs::attrib_enabled()) {
  obs::set_metrics_enabled(false);
  obs::set_tracing_enabled(false);
  obs::set_invariants_enabled(false);
  obs::set_attrib_enabled(false);
}

ObsFreeze::~ObsFreeze() {
  obs::set_metrics_enabled(metrics_was_);
  obs::set_tracing_enabled(tracing_was_);
  obs::set_invariants_enabled(invariants_was_);
  obs::set_attrib_enabled(attrib_was_);
}

std::uint64_t multi_result_fingerprint(const MultiStationResult& r) {
  // Field order mirrors the MultiStationResult declaration; every simulated
  // output participates so the hash IS the bit-identity contract. The
  // event count is how the engine got there, not what it produced.
  Fnv f;
  f.u64(r.seed);
  f.u64(r.flows.size());
  for (const auto& flow : r.flows) {
    f.u64(flow.index);
    f.u64(static_cast<std::uint64_t>(flow.kind));
    f.u64(static_cast<std::uint64_t>(flow.station));
    f.u64(flow.zhuge ? 1 : 0);
    f.f64(flow.start_s);
    f.f64(flow.stop_s);
    f.dist(flow.network_rtt_ms);
    f.dist(flow.downlink_owd_ms);
    f.dist(flow.frame_delay_ms);
    f.f64(flow.goodput_bps);
    f.u64(flow.frames_sent);
    f.u64(flow.frames_decoded);
    f.u64(flow.packets_delivered);
  }
  f.u64(r.stations.size());
  for (const auto& st : r.stations) {
    f.f64(st.airtime_s);
    f.u64(st.qdisc_drops);
    f.u64(st.delivered_packets);
  }
  f.dist(r.agg_network_rtt_ms);
  f.dist(r.agg_frame_delay_ms);
  f.dist(r.prediction_error_ms);
  f.series(r.active_flows);
  f.u64(r.arrivals);
  f.u64(r.departures);
  f.u64(r.late_packets);
  f.u64(r.qdisc_drops);
  f.u64(r.quiesced_drops);
  f.u64(r.flushed_acks_at_end);
  f.u64(r.stranded_acks);
  f.u64(r.invariant_violations);
  f.u64(r.robustness.degrades);
  f.u64(r.robustness.reactivates);
  f.u64(r.robustness.flushed_acks);
  f.u64(r.robustness.optimizer_restarts);
  f.u64(r.robustness.clock_jumps);
  // The fault counters and the flow-0 series joined the hash after the
  // eval anchors were pinned. Each enters as a tagged block only when the
  // run produced it, so every run without faults or series keeps its
  // fingerprint, while a difference in any of these fields still changes
  // the hash (present-vs-absent differs by the whole block).
  if (r.fault_drops != 0 || r.fault_duplicated != 0 || r.fault_reordered != 0 ||
      r.fault_delay_spiked != 0 || r.fault_bypassed != 0) {
    f.u64(0xfa017);
    f.u64(r.fault_drops);
    f.u64(r.fault_duplicated);
    f.u64(r.fault_reordered);
    f.u64(r.fault_delay_spiked);
    f.u64(r.fault_bypassed);
  }
  if (!r.series.empty()) {
    f.u64(0x5e7135);
    f.series(r.series.rtt_ms);
    f.series(r.series.rate_bps);
    f.series(r.series.goodput_bps);
    f.series(r.series.frame_delay_ms);
    f.u64(r.series.predicted_vs_real_ms.size());
    for (const auto& [predicted, real] : r.series.predicted_vs_real_ms) {
      f.f64(predicted);
      f.f64(real);
    }
  }
  return f.h;
}

std::vector<SpecRun> run_spec_sweep(std::vector<SpecPoint> grid,
                                         const SweepOptions& opts) {
  std::vector<SpecRun> runs(grid.size());
  if (grid.empty()) return runs;
  const ObsFreeze freeze;
  if (opts.attrib) obs::set_attrib_enabled(true);
  run_indexed_pool(grid.size(), opts.threads, [&grid, &runs](std::size_t i) {
    // zlint-allow(banned-api): wall-clock throughput probe only.
    const auto t0 = std::chrono::steady_clock::now();
    const SpecPoint& p = grid[i];
    SpecRun& out = runs[i];
    out.name = p.name;
    out.seed = p.seed;
    out.result = run_multi_station(p.spec, p.seed);
    out.fingerprint = multi_result_fingerprint(out.result);
    out.wall_seconds = wall_since(t0);
  });
  return runs;
}

std::vector<SpecPoint> cross_spec_seeds(
    const ScenarioSpec& spec, const std::vector<std::uint64_t>& seeds) {
  std::vector<SpecPoint> grid;
  grid.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) {
    SpecPoint p;
    p.name = spec.name + "/s" + std::to_string(seed);
    p.spec = spec;
    p.seed = seed;
    grid.push_back(std::move(p));
  }
  return grid;
}

void export_spec_sweep_metrics(const std::vector<SpecRun>& runs,
                               obs::Registry& registry) {
  std::uint64_t total_events = 0;
  double total_wall = 0.0;
  for (const auto& run : runs) {
    const std::string base = "mssweep." + run.name + ".";
    const auto& r = run.result;
    if (r.agg_network_rtt_ms.count() > 0) {
      registry.gauge(base + "rtt_p50_ms").set(r.agg_network_rtt_ms.quantile(0.50));
      registry.gauge(base + "rtt_p99_ms").set(r.agg_network_rtt_ms.quantile(0.99));
    }
    if (r.agg_frame_delay_ms.count() > 0) {
      registry.gauge(base + "frame_delay_p99_ms")
          .set(r.agg_frame_delay_ms.quantile(0.99));
    }
    double peak = 0.0;
    for (const auto& pt : r.active_flows.points()) peak = std::max(peak, pt.value);
    registry.gauge(base + "active_flows_peak").set(peak);
    registry.gauge(base + "wall_seconds").set(run.wall_seconds);
    registry.counter(base + "events").inc(r.events_executed);
    registry.counter(base + "arrivals").inc(r.arrivals);
    registry.counter(base + "departures").inc(r.departures);
    registry.counter(base + "qdisc_drops").inc(r.qdisc_drops);
    registry.counter(base + "stranded_acks").inc(r.stranded_acks);
    registry.counter(base + "invariant_violations").inc(r.invariant_violations);
    // Per-stage latency columns (attrib sweeps only; empty otherwise).
    if (!r.attrib.empty()) {
      for (std::size_t s = 0; s < obs::kStageCount; ++s) {
        const auto stage = static_cast<obs::Stage>(s);
        const obs::Histogram& h = r.attrib.all().stage(stage);
        if (h.count() == 0) continue;
        const std::string stage_base =
            base + "stage." + obs::stage_name(stage) + ".";
        registry.gauge(stage_base + "p50_us").set(h.quantile(0.50));
        registry.gauge(stage_base + "p95_us").set(h.quantile(0.95));
        registry.gauge(stage_base + "p99_us").set(h.quantile(0.99));
        registry.counter(stage_base + "count").inc(h.count());
      }
    }
    total_events += r.events_executed;
    total_wall += run.wall_seconds;
  }
  registry.counter("mssweep.total.runs").inc(runs.size());
  registry.counter("mssweep.total.events").inc(total_events);
  registry.gauge("mssweep.total.wall_seconds").set(total_wall);
}

}  // namespace zhuge::app
