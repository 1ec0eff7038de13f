// Fig. 14 reproduction: RTP/GCC degradation durations after a bandwidth
// drop of factor k (30 Mbps -> 30/k) under FIFO, CoDel, and Zhuge:
// (a) RTT > 200 ms, (b) frame delay > 400 ms, (c) frame rate < 10 fps.

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 14: RTP degradation durations after ABW drop ===\n");
  const std::vector<double> ks = {2, 5, 10, 20, 50};

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

  std::vector<std::vector<Degradation>> table;  // [mode][k]
  for (const auto& m : modes) {
    std::vector<Degradation> row;
    for (double k : ks) {
      // Average over a few seeds to stabilise the AQM/loss randomness.
      Degradation acc;
      const int seeds = 3;
      for (int s = 1; s <= seeds; ++s) {
        const auto r = app::run_multi_station(
            drop_spec(k, static_cast<std::uint64_t>(s), SpecFlowKind::kRtpGcc,
                      m.ap, m.qdisc));
        const auto d = degradation_after(r, kDropAtS, kDropRunS);
        acc.rtt_secs += d.rtt_secs / seeds;
        acc.fd_secs += d.fd_secs / seeds;
        acc.fps_secs += d.fps_secs / seeds;
      }
      row.push_back(acc);
    }
    table.push_back(row);
  }

  const char* headings[3] = {"(a) NetworkRtt > 200 ms, seconds",
                             "(b) FrameDelay > 400 ms, seconds",
                             "(c) FrameRate < 10 fps, seconds"};
  for (int metric = 0; metric < 3; ++metric) {
    std::printf("\n%s\n  %-12s", headings[metric], "mode \\ k");
    for (double k : ks) std::printf(" %7.0fx", k);
    std::printf("\n");
    for (std::size_t mi = 0; mi < modes.size(); ++mi) {
      std::printf("  %-12s", modes[mi].label);
      for (const auto& d : table[mi]) {
        const double v = metric == 0 ? d.rtt_secs : metric == 1 ? d.fd_secs : d.fps_secs;
        std::printf(" %8.2f", v);
      }
      std::printf("\n");
    }
  }
  std::printf("\n(paper: Gcc+Zhuge cuts degradation durations by >= 50%% across k)\n");
  return 0;
}
