// Fig. 2 reproduction: RTT / frame-delay / frame-rate tails of Ethernet vs
// WiFi vs 4G access for the same GCC/RTP application. The paper's shape:
// comparable medians, but wireless tails are an order of magnitude worse.

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 2: access-technology tails (GCC/RTP, %ds per run) ===\n", 240);
  const double dur = 240.0;
  const std::vector<double> rtt_thresh = {100, 150, 200, 400, 800};
  const std::vector<double> fd_thresh = {100, 200, 400, 800, 1600};

  struct Row {
    const char* label;
    trace::TraceKind kind;
  };
  const std::vector<Row> rows = {
      {"Ethernet", trace::TraceKind::kEthernet},
      {"WiFi (office)", trace::TraceKind::kOfficeWifi},
      {"4G (city)", trace::TraceKind::kCity4G},
  };

  std::printf("\nP(RTT > x ms):\n  %-24s", "access \\ x");
  for (double t : rtt_thresh) std::printf(" %7.0fms", t);
  std::printf("\n");
  std::vector<ScenarioSpec> specs;
  std::vector<MultiStationResult> results;
  for (const auto& row : rows) {
    specs.push_back(trace_spec(row.kind, 17, dur, 17));
    results.push_back(app::run_multi_station(specs.back()));
    print_ccdf(row.label, results.back().flows.front().network_rtt_ms, rtt_thresh);
  }

  std::printf("\nP(frame delay > x ms):\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    print_ccdf(rows[i].label, results[i].flows.front().frame_delay_ms, fd_thresh);
  }

  std::printf("\nP(frame rate < x fps):\n  %-24s %9s %9s %9s\n", "", "<10fps", "<15fps",
              "<20fps");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto fr = frame_rate_fps(results[i], specs[i].warmup_s, dur);
    std::printf("  %-24s %8.4f%% %8.4f%% %8.4f%%\n", rows[i].label,
                100.0 * fr.ratio_below(10.0), 100.0 * fr.ratio_below(15.0),
                100.0 * fr.ratio_below(20.0));
  }

  std::printf("\nP50 RTT (comparable across access types, per the paper):\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("  %-24s %6.1f ms\n", rows[i].label,
                results[i].flows.front().network_rtt_ms.quantile(0.5));
  }
  return 0;
}
