// Fig. 4 reproduction: convergence duration after a wireless bandwidth
// drop for different CCAs (CUBIC/BBR/Copa over TCP, GCC over RTP) with
// FIFO and CoDel queue management. Two y-axes as in the paper:
//  (a) RTT-degradation duration (time with RTT > 200 ms),
//  (b) sending-rate re-convergence duration (time until the CCA's rate
//      settles below 2x the post-drop capacity).

#include "bench_util.hpp"

using namespace zhuge;
using namespace zhuge::bench;

namespace {

struct Algo {
  const char* label;
  SpecFlowKind kind;
};

double rate_convergence_secs(const MultiStationResult& r, double post_capacity_bps) {
  const TimePoint t0 = TimePoint::zero() + Duration::from_seconds(kDropAtS);
  const TimePoint t1 = TimePoint::zero() + Duration::from_seconds(kDropRunS);
  return (r.series.rate_bps.last_above(2.0 * post_capacity_bps, t0, t1) - t0)
      .to_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  zhuge::bench::ObsSession obs_session(argc, argv);
  std::printf("=== Fig. 4: convergence after a bandwidth drop (30 Mbps -> 30/k) ===\n");
  const std::vector<double> ks = {2, 5, 10, 20, 50};

  const std::vector<Algo> algos = {
      {"Cubic", SpecFlowKind::kTcpCubic},
      {"Bbr", SpecFlowKind::kTcpBbr},
      {"Copa", SpecFlowKind::kTcpCopa},
      {"Gcc", SpecFlowKind::kRtpGcc},
  };
  const std::vector<std::pair<const char*, QdiscKind>> qdiscs = {
      {"FIFO", QdiscKind::kFifo}, {"CoDel", QdiscKind::kCoDel}};

  std::printf("\n(a) RTT-degradation duration, seconds (RTT > 200 ms)\n");
  std::printf("  %-14s", "algo+qdisc \\ k");
  for (double k : ks) std::printf(" %7.0fx", k);
  std::printf("\n");

  struct Cell {
    double rtt;
    double rate;
  };
  std::vector<std::vector<Cell>> table;

  for (const auto& algo : algos) {
    for (const auto& [qname, qkind] : qdiscs) {
      std::vector<Cell> row;
      std::printf("  %-6s+%-7s", algo.label, qname);
      for (double k : ks) {
        const auto r = app::run_multi_station(
            drop_spec(k, 3, algo.kind, ApMode::kNone, qkind));
        Cell c;
        c.rtt = degradation_after(r, kDropAtS, kDropRunS).rtt_secs;
        c.rate = rate_convergence_secs(r, 30e6 / k);
        row.push_back(c);
        std::printf(" %8.2f", c.rtt);
      }
      table.push_back(row);
      std::printf("\n");
    }
  }

  std::printf("\n(b) sending-rate re-convergence duration, seconds"
              " (rate > 2x post-drop capacity)\n");
  std::printf("  %-14s", "algo+qdisc \\ k");
  for (double k : ks) std::printf(" %7.0fx", k);
  std::printf("\n");
  std::size_t idx = 0;
  for (const auto& algo : algos) {
    for (const auto& [qname, qkind] : qdiscs) {
      std::printf("  %-6s+%-7s", algo.label, qname);
      for (const auto& c : table[idx]) std::printf(" %8.2f", c.rate);
      ++idx;
      std::printf("\n");
    }
  }
  std::printf("\n(paper: all end-host CCAs suffer seconds of degradation at"
              " k >= 10; CoDel barely helps delay-based CCAs)\n");
  return 0;
}
