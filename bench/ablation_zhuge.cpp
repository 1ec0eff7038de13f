// Ablation bench for the design choices called out in DESIGN.md §5:
//   1. qShort term on/off (the instant channel-stall signal)
//   2. Eq. 1 burst adjustment on/off
//   3. distributional delta sampling vs per-ACK accumulation (§5.2)
//   4. delay tokens on/off
//   5. retreatable holds on/off (good news travels fast)
//   6. Fortune Teller window length sweep (transience-equilibrium nexus)
// Each variant runs the W1 trace (RTP for 1-2, TCP for 3-5) plus the
// k=10 bandwidth-drop microbenchmark.

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

namespace {

struct Variant {
  std::string label;
  SpecFlowKind kind;
  std::function<void(core::ZhugeConfig&)> tweak;
};

void run_table(const std::vector<Variant>& variants) {
  std::printf("  %-28s %12s %12s | %12s\n", "variant", "W1 RTT>200", "W1 fd>400",
              "drop k=10 (s)");
  for (const auto& v : variants) {
    // Trace-driven W1.
    const auto metrics = averaged_tails(
        [&](int s) {
          ScenarioSpec spec = trace_spec(
              trace::TraceKind::kRestaurantWifi, 13u * static_cast<unsigned>(s),
              150.0, static_cast<std::uint64_t>(s), v.kind, ApMode::kZhuge);
          v.tweak(spec.zhuge);
          return spec;
        },
        3);
    // Bandwidth-drop microbenchmark.
    ScenarioSpec drop = drop_spec(10.0, 3, v.kind, ApMode::kZhuge);
    v.tweak(drop.zhuge);
    const auto deg = degradation_after(app::run_multi_station(drop), kDropAtS,
                                       kDropRunS);

    std::printf("  %-28s %11.3f%% %11.3f%% | %12.2f\n", v.label.c_str(),
                100.0 * metrics.rtt_gt_200, 100.0 * metrics.fd_gt_400,
                deg.rtt_secs);
  }
}

}  // namespace

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Ablations of Zhuge's design choices ===\n");

  std::printf("\n--- Fortune Teller (RTP/GCC path) ---\n");
  run_table({
      {"full Zhuge", SpecFlowKind::kRtpGcc, [](core::ZhugeConfig&) {}},
      {"no qShort", SpecFlowKind::kRtpGcc,
       [](core::ZhugeConfig& z) { z.fortune.use_qshort = false; }},
      {"no burst adjustment (Eq.1)", SpecFlowKind::kRtpGcc,
       [](core::ZhugeConfig& z) { z.fortune.burst_adjustment = false; }},
      {"window 10 ms (too short)", SpecFlowKind::kRtpGcc,
       [](core::ZhugeConfig& z) {
         z.fortune.window = Duration::millis(10);
       }},
      {"window 200 ms (too long)", SpecFlowKind::kRtpGcc,
       [](core::ZhugeConfig& z) {
         z.fortune.window = Duration::millis(200);
       }},
  });

  std::printf("\n--- Feedback Updater (TCP/Copa path) ---\n");
  run_table({
      {"full Zhuge", SpecFlowKind::kTcpCopa, [](core::ZhugeConfig&) {}},
      {"accumulate deltas (no dist.)", SpecFlowKind::kTcpCopa,
       [](core::ZhugeConfig& z) {
         z.oob.distributional_sampling = false;
       }},
      {"no delay tokens", SpecFlowKind::kTcpCopa,
       [](core::ZhugeConfig& z) { z.oob.use_tokens = false; }},
      {"no retreat of pending holds", SpecFlowKind::kTcpCopa,
       [](core::ZhugeConfig& z) { z.oob.retreat_pending = false; }},
      {"raw Algorithm 1 (no smooth)", SpecFlowKind::kTcpCopa,
       [](core::ZhugeConfig& z) {
         z.oob.delta_smoothing_alpha = 1.0;
       }},
  });

  std::printf("\n(lower is better everywhere; 'full Zhuge' should be at or near\n"
              " the best value in each column)\n");
  return 0;
}
