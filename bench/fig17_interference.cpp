// Fig. 17 reproduction: degradation *frequency* with 5..40 wireless
// interferers (saturating bulk senders on other APs sharing the channel).
// Interference is continuous, so the metric is the fraction of time spent
// degraded rather than a per-event duration.

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 17: RTP under wireless interference ===\n");
  const double dur = 60.0;
  const double measure_from = 5.0;
  const std::vector<int> interferers = {5, 10, 20, 30, 40};

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
  const double window_secs = dur - measure_from;
  for (const auto& m : modes) {
    std::vector<Degradation> row;
    for (int n : interferers) {
      // PHY mode: MCS 7 = 65 Mbps, shared with n saturating interferers.
      ScenarioSpec spec =
          figure_spec(dur, 7, SpecFlowKind::kRtpGcc, m.ap, m.qdisc);
      spec.interferers = n;
      const auto r = app::run_multi_station(spec);
      row.push_back(degradation_after(r, measure_from, dur));
    }
    table.push_back(row);
  }

  const char* headings[3] = {"(a) frequency of NetworkRtt > 200 ms",
                             "(b) frequency of FrameDelay > 400 ms",
                             "(c) frequency of FrameRate < 10 fps"};
  for (int metric = 0; metric < 3; ++metric) {
    std::printf("\n%s\n  %-12s", headings[metric], "mode \\ n");
    for (int n : interferers) std::printf(" %7d", n);
    std::printf("\n");
    for (std::size_t mi = 0; mi < modes.size(); ++mi) {
      std::printf("  %-12s", modes[mi].label);
      for (const auto& d : table[mi]) {
        const double v = metric == 0 ? d.rtt_secs : metric == 1 ? d.fd_secs : d.fps_secs;
        std::printf(" %6.2f%%", 100.0 * v / window_secs);
      }
      std::printf("\n");
    }
  }
  std::printf("\n(paper: Zhuge halves the degradation frequency; Cisco measured up\n"
              " to 29 interferers at P90 on 2.4 GHz, so this regime is realistic)\n");
  return 0;
}
