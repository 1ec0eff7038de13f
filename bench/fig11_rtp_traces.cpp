// Fig. 11 reproduction: trace-driven RTP/RTCP evaluation. For each of the
// five wireless traces: P(RTT>200ms) and P(frame delay>400ms) under
// Gcc+FIFO, Gcc+CoDel, and Gcc+Zhuge.

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 11: RTP/RTCP over real-world-like traces ===\n");
  const double dur = 150.0;
  const int seeds = 3;

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

  std::printf("\n(a) P(NetworkRtt > 200 ms)\n  %-10s", "trace");
  for (const auto& m : modes) std::printf(" %12s", m.label);
  std::printf("\n");

  std::vector<std::vector<TailMetrics>> table;  // [trace][mode]
  for (const auto kind : kPaperTraces) {
    std::vector<TailMetrics> row;
    std::printf("  %-10s", trace::short_name(kind));
    for (const auto& m : modes) {
      const auto metrics = averaged_tails(
          [&](int s) {
            return trace_spec(kind, 13u * static_cast<unsigned>(s), dur,
                              static_cast<std::uint64_t>(s),
                              SpecFlowKind::kRtpGcc, m.ap, m.qdisc);
          },
          seeds);
      row.push_back(metrics);
      std::printf(" %11.3f%%", 100.0 * metrics.rtt_gt_200);
    }
    table.push_back(row);
    std::printf("\n");
  }

  std::printf("\n(b) P(FrameDelay > 400 ms)\n  %-10s", "trace");
  for (const auto& m : modes) std::printf(" %12s", m.label);
  std::printf("\n");
  for (std::size_t i = 0; i < kPaperTraces.size(); ++i) {
    std::printf("  %-10s", trace::short_name(kPaperTraces[i]));
    for (const auto& metrics : table[i]) {
      std::printf(" %11.3f%%", 100.0 * metrics.fd_gt_400);
    }
    std::printf("\n");
  }

  std::printf("\n(paper: Zhuge reduces the long-RTT ratio by 45-75%% and the\n"
              " delayed-frame ratio by 38-92%% vs the best baseline)\n");
  return 0;
}
