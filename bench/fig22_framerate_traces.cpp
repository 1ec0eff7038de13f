// Fig. 22 reproduction (appendix): P(frame rate < 10 fps) over the five
// traces, for both the RTP/GCC and TCP/Copa mode line-ups.

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 22: low-frame-rate ratio over traces ===\n");
  const double dur = 150.0;
  const int seeds = 3;

  std::printf("\n(a) RTP/RTCP: P(FrameRate < 10 fps)\n  %-10s %12s %12s %12s\n",
              "trace", "Gcc+FIFO", "Gcc+CoDel", "Gcc+Zhuge");
  struct RtpMode {
    ApMode ap;
    QdiscKind qdisc;
  };
  const std::vector<RtpMode> rtp_modes = {{ApMode::kNone, QdiscKind::kFifo},
                                          {ApMode::kNone, QdiscKind::kCoDel},
                                          {ApMode::kZhuge, QdiscKind::kFifo}};
  for (const auto kind : kPaperTraces) {
    std::printf("  %-10s", trace::short_name(kind));
    for (const auto& m : rtp_modes) {
      const auto metrics = averaged_tails(
          [&](int s) {
            return trace_spec(kind, 13u * static_cast<unsigned>(s), dur,
                              static_cast<std::uint64_t>(s),
                              SpecFlowKind::kRtpGcc, m.ap, m.qdisc);
          },
          seeds);
      std::printf(" %11.3f%%", 100.0 * metrics.fps_lt_10);
    }
    std::printf("\n");
  }

  std::printf("\n(b) TCP: P(FrameRate < 10 fps)\n  %-10s %12s %13s %12s %12s\n",
              "trace", "Copa", "Copa+FastAck", "ABC", "Copa+Zhuge");
  struct TcpMode {
    ApMode ap;
    SpecFlowKind cca;
  };
  const std::vector<TcpMode> tcp_modes = {{ApMode::kNone, SpecFlowKind::kTcpCopa},
                                          {ApMode::kFastAck, SpecFlowKind::kTcpCopa},
                                          {ApMode::kAbc, SpecFlowKind::kTcpAbc},
                                          {ApMode::kZhuge, SpecFlowKind::kTcpCopa}};
  for (const auto kind : kPaperTraces) {
    std::printf("  %-10s", trace::short_name(kind));
    for (const auto& m : tcp_modes) {
      const auto metrics = averaged_tails(
          [&](int s) {
            return trace_spec(kind, 13u * static_cast<unsigned>(s), dur,
                              static_cast<std::uint64_t>(s), m.cca, m.ap);
          },
          seeds);
      std::printf(" %11.3f%%", 100.0 * metrics.fps_lt_10);
    }
    std::printf("\n");
  }
  std::printf("\n(paper: Zhuge attains the smallest or near-smallest low-fps ratio;\n"
              " ABC underperforms on frame rate due to aggressive rate ascent)\n");
  return 0;
}
