// Fig. 12 reproduction: trace-driven TCP evaluation. For each trace:
// P(RTT>200ms) and P(frame delay>400ms) under Copa, Copa+FastAck, ABC
// (host-router co-design), and Copa+Zhuge.

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 12: TCP over real-world-like traces ===\n");
  const double dur = 150.0;
  const int seeds = 3;

  struct Mode {
    const char* label;
    ApMode ap;
    SpecFlowKind cca;
  };
  const std::vector<Mode> modes = {
      {"Copa", ApMode::kNone, SpecFlowKind::kTcpCopa},
      {"Copa+FastAck", ApMode::kFastAck, SpecFlowKind::kTcpCopa},
      {"ABC", ApMode::kAbc, SpecFlowKind::kTcpAbc},
      {"Copa+Zhuge", ApMode::kZhuge, SpecFlowKind::kTcpCopa},
  };

  std::printf("\n(a) P(NetworkRtt > 200 ms)   [sender-capture semantics]\n  %-10s",
              "trace");
  for (const auto& m : modes) std::printf(" %13s", m.label);
  std::printf("\n");

  std::vector<std::vector<TailMetrics>> table;
  for (const auto kind : kPaperTraces) {
    std::vector<TailMetrics> row;
    std::printf("  %-10s", trace::short_name(kind));
    for (const auto& m : modes) {
      const auto metrics = averaged_tails(
          [&](int s) {
            return trace_spec(kind, 13u * static_cast<unsigned>(s), dur,
                              static_cast<std::uint64_t>(s), m.cca, m.ap);
          },
          seeds);
      row.push_back(metrics);
      std::printf(" %12.3f%%", 100.0 * metrics.rtt_gt_200);
    }
    table.push_back(row);
    std::printf("\n");
  }

  std::printf("\n(b) P(FrameDelay > 400 ms)\n  %-10s", "trace");
  for (const auto& m : modes) std::printf(" %13s", m.label);
  std::printf("\n");
  for (std::size_t i = 0; i < kPaperTraces.size(); ++i) {
    std::printf("  %-10s", trace::short_name(kPaperTraces[i]));
    for (const auto& metrics : table[i]) {
      std::printf(" %12.3f%%", 100.0 * metrics.fd_gt_400);
    }
    std::printf("\n");
  }

  std::printf("\n(paper: Copa+Zhuge beats the AP-only baselines and is comparable\n"
              " to ABC, which needs host *and* router changes)\n");
  return 0;
}
