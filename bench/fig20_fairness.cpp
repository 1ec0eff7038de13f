// Fig. 20 reproduction: steady-state fairness between two RTC flows
// sharing the AP, for RTP/GCC and TCP/Copa:
//   bar (a) neither flow optimised, (b) one of two optimised (external
//   fairness), (c) both optimised (internal fairness).
// Reported: per-flow goodput normalised by the link capacity.

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

namespace {

struct Bar {
  double flow_a = 0.0;
  double flow_b = 0.0;
};

Bar run_bar(SpecFlowKind kind, ApMode mode, bool optimise_a, bool optimise_b,
            double capacity_bps) {
  ScenarioSpec spec = figure_spec(300.0, 11, kind, mode);
  spec.warmup_s = 120.0;  // measure converged steady state
  spec.stations.front().rate_trace.mbps = capacity_bps / 1e6;
  // Two RTC flows through the same AP queue. Let both contend for the
  // link: raise the encoder cap so goodput is bandwidth-limited, not
  // content-limited.
  app::SpecFlow& a = spec.flows.front();
  a.max_bitrate_mbps = capacity_bps / 1e6;
  app::SpecFlow b = a;
  a.zhuge = optimise_a;
  b.zhuge = optimise_b;
  spec.flows.push_back(b);
  const auto r = app::run_multi_station(spec);
  Bar bar;
  bar.flow_a = r.flows[0].goodput_bps / capacity_bps;
  bar.flow_b = r.flows[1].goodput_bps / capacity_bps;
  return bar;
}

}  // namespace

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 20: fairness of Zhuge (goodput normalised by capacity) ===\n");
  const double capacity = 20e6;

  for (const SpecFlowKind kind : {SpecFlowKind::kRtpGcc, SpecFlowKind::kTcpCopa}) {
    const char* pname =
        kind == SpecFlowKind::kRtpGcc ? "RTP/RTCP (GCC)" : "TCP (Copa)";
    std::printf("\n--- %s ---\n", pname);
    const Bar a = run_bar(kind, ApMode::kNone, false, false, capacity);
    const Bar b = run_bar(kind, ApMode::kZhuge, true, false, capacity);
    const Bar c = run_bar(kind, ApMode::kZhuge, true, true, capacity);
    std::printf("  (a) w/o Zhuge:        flow1 %5.1f%%  flow2 %5.1f%%  sum %5.1f%%\n",
                100 * a.flow_a, 100 * a.flow_b, 100 * (a.flow_a + a.flow_b));
    std::printf("  (b) one optimised:    flow1 %5.1f%%* flow2 %5.1f%%  sum %5.1f%%\n",
                100 * b.flow_a, 100 * b.flow_b, 100 * (b.flow_a + b.flow_b));
    std::printf("  (c) both optimised:   flow1 %5.1f%%* flow2 %5.1f%%* sum %5.1f%%\n",
                100 * c.flow_a, 100 * c.flow_b, 100 * (c.flow_a + c.flow_b));
    const auto gap = [](const Bar& bar) {
      return std::abs(bar.flow_a - bar.flow_b) /
             std::max(bar.flow_a + bar.flow_b, 1e-9) * 2.0;
    };
    std::printf("  flow gap: baseline(a) %.1f%%, one-optimised(b) %.1f%%, "
                "both(c) %.1f%%\n",
                100.0 * gap(a), 100.0 * gap(b), 100.0 * gap(c));
    std::printf("  unfairness *added* by Zhuge in (b): %+.1f%% vs the CCA's own\n"
                "  baseline gap  (* = Zhuge-optimised)\n",
                100.0 * (gap(b) - gap(a)));
  }
  std::printf("\n(paper: bitrate difference of optimised vs non-optimised < 3%%;\n"
              " internal fairness unaffected, GCC even gains ~10%% bitrate)\n");
  return 0;
}
