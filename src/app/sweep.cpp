#include "app/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

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

std::string to_hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::optional<std::uint64_t> parse_hex16(std::string_view s) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v, 16);
  if (s.empty() || s.size() > 16 || ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return v;
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
                                    unsigned threads) {
  std::vector<SpecRun> runs(grid.size());
  run_indexed_pool(grid.size(), threads, [&grid, &runs](std::size_t i) {
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

}  // namespace zhuge::app
