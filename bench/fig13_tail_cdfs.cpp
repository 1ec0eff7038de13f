// Fig. 13 reproduction: detailed tail distributions (1-CDF) of network
// RTT, frame delay, and frame rate for traces W1 (WiFi) and C1 (cellular)
// under Gcc+FIFO, Gcc+CoDel, Gcc+Zhuge.

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 13: tail CDFs on W1 and C1 (RTP/GCC) ===\n");
  const double dur = 300.0;

  struct Mode {
    const char* label;
    ApMode ap;
    QdiscKind qdisc;
  };
  const std::vector<Mode> modes = {
      {"Gcc+FIFO", ApMode::kNone, QdiscKind::kFifo},
      {"Gcc+CoDel", ApMode::kNone, QdiscKind::kCoDel},
      {"Gcc+Zhuge", ApMode::kZhuge, QdiscKind::kFifo},
  };
  const std::vector<double> rtt_thresh = {100, 200, 400, 800};
  const std::vector<double> fd_thresh = {100, 200, 400, 800};

  for (const auto kind :
       {trace::TraceKind::kRestaurantWifi, trace::TraceKind::kIndoorMixed45G}) {
    std::printf("\n--- trace %s (%s) ---\n", trace::short_name(kind),
                trace::long_name(kind));
    std::vector<MultiStationResult> results;
    for (const auto& m : modes) {
      results.push_back(app::run_multi_station(
          trace_spec(kind, 29, dur, 4, SpecFlowKind::kRtpGcc, m.ap, m.qdisc)));
    }

    std::printf("P(NetworkRtt > x):%14s", "");
    for (double t : rtt_thresh) std::printf(" %7.0fms", t);
    std::printf("   p99(ms)\n");
    for (std::size_t i = 0; i < modes.size(); ++i) {
      const auto& d = results[i].flows.front().network_rtt_ms;
      std::printf("  %-24s", modes[i].label);
      for (double t : rtt_thresh) std::printf(" %8.4f%%", 100.0 * d.ratio_above(t));
      std::printf(" %8.0f\n", d.quantile(0.99));
    }

    std::printf("P(FrameDelay > x):%14s", "");
    for (double t : fd_thresh) std::printf(" %7.0fms", t);
    std::printf("\n");
    for (std::size_t i = 0; i < modes.size(); ++i) {
      print_ccdf(modes[i].label, results[i].flows.front().frame_delay_ms, fd_thresh);
    }

    std::printf("P(FrameRate < x):%15s %9s %9s %9s\n", "", "<6fps", "<10fps", "<12fps");
    for (std::size_t i = 0; i < modes.size(); ++i) {
      const auto fr = frame_rate_fps(results[i], 5.0, dur);
      std::printf("  %-24s %8.4f%% %8.4f%% %8.4f%%\n", modes[i].label,
                  100.0 * fr.ratio_below(6.0), 100.0 * fr.ratio_below(10.0),
                  100.0 * fr.ratio_below(12.0));
    }
  }
  std::printf("\n(paper: on W1, Zhuge reduces p99 RTT from ~400 ms to ~170 ms and\n"
              " roughly halves the delayed-frame and low-fps ratios)\n");
  return 0;
}
