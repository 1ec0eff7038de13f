// Fig. 19 reproduction: Fortune Teller prediction accuracy.
// (a) CDF of |predicted - actual| per trace; (b) heatmap of estimated vs
// real delay (row-normalised, log2-spaced 1..256 ms bins).

#include "bench_util.hpp"

#include "stats/distribution.hpp"

using namespace zhuge;
using namespace zhuge::bench;

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 19: Fortune Teller prediction accuracy ===\n");
  const double dur = 150.0;

  std::printf("\n(a) prediction-error CDF per trace, |estimated - real| (ms)\n");
  std::printf("  %-10s %8s %8s %8s %8s %10s\n", "trace", "p50", "p90", "p99", "mean",
              "samples");
  stats::Heatmap2D heat(1.0, 256.0, 8);
  for (const auto kind : kPaperTraces) {
    const auto r = app::run_multi_station(
        trace_spec(kind, 41, dur, 6, SpecFlowKind::kRtpGcc, ApMode::kZhuge));
    const auto& e = r.prediction_error_ms;
    std::printf("  %-10s %8.2f %8.2f %8.2f %8.2f %10zu\n", trace::short_name(kind),
                e.quantile(0.5), e.quantile(0.9), e.quantile(0.99), e.mean(),
                e.count());
    for (const auto& [pred, real] : r.series.predicted_vs_real_ms) {
      heat.add(std::max(pred, 1e-3), std::max(real, 1e-3));
    }
  }

  std::printf("\n(b) heatmap: estimated (columns) vs real (rows) delay,"
              " row-normalised %%\n     est:");
  for (std::size_t x = 0; x < heat.bins(); ++x) {
    std::printf(" %5.0fms", heat.bin_edge(x));
  }
  std::printf("\n");
  for (std::size_t y = 0; y < heat.bins(); ++y) {
    std::printf("  %5.0fms", heat.bin_edge(y));
    for (std::size_t x = 0; x < heat.bins(); ++x) {
      std::printf(" %6.1f%%", 100.0 * heat.cell_row_normalised(x, y));
    }
    std::printf("\n");
  }
  std::printf("\n(paper: errors well below the 50 ms RTT for low delays; at high\n"
              " real delays the estimate may be off but is still 'high enough'\n"
              " to trigger the sender to back off)\n");
  return 0;
}
