// Fig. 15 reproduction: TCP degradation durations after a bandwidth drop
// of factor k for Copa, Copa+FastAck, ABC, and Copa+Zhuge. The paper's
// shape: Zhuge wins for k < 15-30; at extreme k the durations are bounded
// by RTO recovery and ABC's explicit signalling can win. The last two
// rows rerun Copa and Copa+Zhuge in the bufferbloat regime the paper's
// motivation lives in: the AP's default 450 KB queue and the paper's
// 2.5 Mbps video instead of the microbenchmarks' 100-packet buffer and
// link-filling 40 Mbps cap.

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 15: TCP degradation durations after ABW drop ===\n");
  const std::vector<double> ks = {2, 5, 10, 20, 50};

  struct Mode {
    const char* label;
    ApMode ap;
    SpecFlowKind cca;
    bool bufferbloat;
  };
  const std::vector<Mode> modes = {
      {"Copa", ApMode::kNone, SpecFlowKind::kTcpCopa, false},
      {"Copa+FastAck", ApMode::kFastAck, SpecFlowKind::kTcpCopa, false},
      {"ABC", ApMode::kAbc, SpecFlowKind::kTcpAbc, false},
      {"Copa+Zhuge", ApMode::kZhuge, SpecFlowKind::kTcpCopa, false},
      {"Copa/450KB", ApMode::kNone, SpecFlowKind::kTcpCopa, true},
      {"Copa+Zhuge/450KB", ApMode::kZhuge, SpecFlowKind::kTcpCopa, true},
  };

  std::vector<std::vector<Degradation>> table;
  for (const auto& m : modes) {
    std::vector<Degradation> row;
    for (double k : ks) {
      Degradation acc;
      const int seeds = 3;
      for (int s = 1; s <= seeds; ++s) {
        ScenarioSpec spec =
            drop_spec(k, static_cast<std::uint64_t>(s), m.cca, m.ap);
        if (m.bufferbloat) {
          spec.stations.front().queue_limit_bytes = app::StationGroupSpec{}.queue_limit_bytes;
          spec.flows.front().max_bitrate_mbps = app::SpecFlow{}.max_bitrate_mbps;
        }
        const auto d = degradation_after(app::run_multi_station(spec),
                                         kDropAtS, kDropRunS);
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
    std::printf("\n%s\n  %-18s", headings[metric], "mode \\ k");
    for (double k : ks) std::printf(" %7.0fx", k);
    std::printf("\n");
    for (std::size_t mi = 0; mi < modes.size(); ++mi) {
      std::printf("  %-18s", modes[mi].label);
      for (const auto& d : table[mi]) {
        const double v = metric == 0 ? d.rtt_secs : metric == 1 ? d.fd_secs : d.fps_secs;
        std::printf(" %8.2f", v);
      }
      std::printf("\n");
    }
  }
  std::printf("\n(paper: Copa+Zhuge cuts RTT degradation 14-64%% for k < 30; at\n"
              " k >= 30 the durations are RTO-bound and ABC can do better)\n");
  return 0;
}
