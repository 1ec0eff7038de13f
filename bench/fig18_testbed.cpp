// Fig. 18 reproduction: the paper's OpenWrt-testbed scenarios, rebuilt on
// the simulated AP (substitution documented in DESIGN.md):
//   scp — a bulk transfer toggling on/off every 30 s alongside the RTC flow
//   mcs — the link-layer modulation-coding scheme re-rolled every 30 s
//   raw — the plain fluctuating office channel
// Reported: tail ratios (network RTT, frame delay) and steady-state
// bitrate, with and without Zhuge.

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

namespace {

ScenarioSpec case_spec(const std::string& scenario, ApMode mode,
                       std::uint64_t seed) {
  const double dur = 240.0;
  if (scenario == "raw") {  // crowded-office channel
    return trace_spec(trace::TraceKind::kOfficeWifi, 31, dur, seed,
                      SpecFlowKind::kRtpGcc, mode);
  }
  ScenarioSpec spec = figure_spec(dur, seed, SpecFlowKind::kRtpGcc, mode);
  if (scenario == "scp") {
    spec.stations.front().mcs = 4;  // 39 Mbps
    app::SpecFlow scp;
    scp.kind = SpecFlowKind::kTcpBulk;
    scp.onoff = true;
    spec.flows.push_back(scp);
  } else {  // mcs
    spec.stations.front().mcs = 5;
    spec.mcs_reroll = true;
    // At 2 Mbps even MCS0 (6.5 Mbps) never congests; stream a richer
    // video so the MCS drops actually bite, as they do on the paper's
    // testbed where the channel carries background office traffic too.
    spec.flows.front().max_bitrate_mbps = 12.0;
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 18: testbed-style scenarios (scp / mcs / raw) ===\n");
  std::printf("\n  %-9s %-7s %14s %14s %12s\n", "scenario", "mode", "RTT>200ms",
              "Frame>400ms", "bitrate(Mbps)");
  for (const char* scenario : {"scp", "mcs", "raw"}) {
    TailMetrics base;
    TailMetrics zhuge_m;
    for (int pass = 0; pass < 2; ++pass) {
      const ApMode mode = pass == 0 ? ApMode::kNone : ApMode::kZhuge;
      const ScenarioSpec spec = case_spec(scenario, mode, 9);
      const auto m = tail_metrics(spec, app::run_multi_station(spec));
      (pass == 0 ? base : zhuge_m) = m;
      std::printf("  %-9s %-7s %13.3f%% %13.3f%% %12.2f\n", scenario,
                  mode_name(mode), 100.0 * m.rtt_gt_200, 100.0 * m.fd_gt_400,
                  m.goodput_mbps);
    }
    const auto impr = [](double a, double b) {
      return a > 0 ? 100.0 * (a - b) / a : 0.0;
    };
    std::printf("  %-9s improvement: RTT tail %.0f%%, frame tail %.0f%%, "
                "bitrate delta %+.1f%%\n",
                scenario, impr(base.rtt_gt_200, zhuge_m.rtt_gt_200),
                impr(base.fd_gt_400, zhuge_m.fd_gt_400),
                base.goodput_mbps > 0
                    ? 100.0 * (zhuge_m.goodput_mbps - base.goodput_mbps) /
                          base.goodput_mbps
                    : 0.0);
  }
  std::printf("\n(paper: 17-95%% RTT-tail and 9-67%% frame-tail improvement across\n"
              " scenarios, with the steady-state bitrate unchanged)\n");
  return 0;
}
