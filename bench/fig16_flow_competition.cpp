// Fig. 16 reproduction: degradation under competing CUBIC bulk flows at
// the same AP (0..40 flows): time with RTT > 200 ms, frame delay > 400 ms
// and frame rate < 10 fps over a 60 s window, per AP mode.

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 16: RTP under competing CUBIC bulk flows ===\n");
  const double dur = 60.0;
  const double measure_from = 5.0;
  const std::vector<int> flow_counts = {0, 10, 20, 30, 40};

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

  std::vector<std::vector<Degradation>> table;
  for (const auto& m : modes) {
    std::vector<Degradation> row;
    for (int flows : flow_counts) {
      ScenarioSpec spec =
          figure_spec(dur, 7, SpecFlowKind::kRtpGcc, m.ap, m.qdisc);
      spec.stations.front().rate_trace.mbps = 30.0;
      // CUBIC bulk competitors sharing the RTC flow's AP queue.
      app::SpecFlow bulk;
      bulk.kind = SpecFlowKind::kTcpBulk;
      spec.flows.insert(spec.flows.end(), static_cast<std::size_t>(flows), bulk);
      const auto r = app::run_multi_station(spec);
      row.push_back(degradation_after(r, measure_from, dur));
    }
    table.push_back(row);
  }

  const char* headings[3] = {"(a) NetworkRtt > 200 ms, seconds (of 55 s)",
                             "(b) FrameDelay > 400 ms, seconds",
                             "(c) FrameRate < 10 fps, seconds"};
  for (int metric = 0; metric < 3; ++metric) {
    std::printf("\n%s\n  %-12s", headings[metric], "mode \\ flows");
    for (int f : flow_counts) std::printf(" %7d", f);
    std::printf("\n");
    for (std::size_t mi = 0; mi < modes.size(); ++mi) {
      std::printf("  %-12s", modes[mi].label);
      for (const auto& d : table[mi]) {
        const double v = metric == 0 ? d.rtt_secs : metric == 1 ? d.fd_secs : d.fps_secs;
        std::printf(" %7.2f", v);
      }
      std::printf("\n");
    }
  }
  std::printf("\n(paper: Zhuge reduces degradation by up to 40%% under competition)\n");
  return 0;
}
