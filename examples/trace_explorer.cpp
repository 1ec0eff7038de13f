// Example: working with bandwidth traces directly.
//
// Generates each synthetic trace class, prints its fluctuation profile
// (the Fig. 3(b) statistic), exports one to CSV and reloads it (the
// "time_ms,rate_mbps" format for your own measured traces), and runs a
// quick scenario whose station follows the same trace.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/trace_explorer

#include <cstdio>
#include <filesystem>
#include <string>

#include "app/scenario.hpp"
#include "app/spec.hpp"
#include "obs/session.hpp"
#include "trace/synthetic.hpp"

using namespace zhuge;

int main(int argc, char** argv) {
  obs::ObsSession obs(argc, argv);  // --trace/--metrics/--attrib, as in figures
  if (!obs.only_obs_flags(argv[0])) return 2;
  const auto dur = sim::Duration::seconds(300);

  std::printf("synthetic trace classes and their ABW-fluctuation profiles:\n");
  std::printf("  %-28s %10s %10s %12s\n", "trace", "mean Mbps", "min Mbps",
              "P[drop>10x]");
  for (const auto kind :
       {trace::TraceKind::kRestaurantWifi, trace::TraceKind::kOfficeWifi,
        trace::TraceKind::kIndoorMixed45G, trace::TraceKind::kCity4G,
        trace::TraceKind::kCity5G, trace::TraceKind::kEthernet}) {
    const auto tr = trace::make_trace(kind, 1, dur);
    double min_rate = tr.samples().front().rate_bps;
    for (const auto& s : tr.samples()) min_rate = std::min(min_rate, s.rate_bps);
    const auto stats = trace::abw_reduction_stats(tr);
    std::printf("  %-28s %10.1f %10.2f %11.2f%%\n", trace::long_name(kind),
                tr.mean_rate_bps() / 1e6, min_rate / 1e6,
                100.0 * stats.fraction_above(10.0));
  }

  // Export + reload round trip (use this format for your own traces:
  // "time_ms,rate_mbps" per line).
  const std::string path = "/tmp/zhuge_example_trace.csv";
  const auto original = trace::make_trace(trace::TraceKind::kRestaurantWifi, 1, dur);
  trace::save_csv(original, path);
  const auto reloaded = trace::load_csv(path, "my-trace");
  std::printf("\nexported %zu samples to %s and reloaded %zu\n",
              original.samples().size(), path.c_str(), reloaded.samples().size());

  // The exported file holds the W1 trace drawn from seed 1, which a spec
  // names directly: a station's "trace" can be a class with a seed.
  std::string err;
  const auto spec = app::parse_scenario_spec(
      R"({ "name": "w1", "duration_s": 60, "seed": 1, "ap_mode": "zhuge",
           "stations": [ { "trace": { "class": "W1", "seed": 1 } } ],
           "flows": [ { "kind": "rtp_gcc", "station": 0, "zhuge": true } ] })",
      &err);
  if (!spec.has_value()) {
    std::fprintf(stderr, "spec: %s\n", err.c_str());
    return 1;
  }
  const auto r = app::run_multi_station(*spec);
  std::printf("60 s GCC/RTP run on that trace with Zhuge: "
              "P99 RTT %.1f ms, %llu frames decoded\n",
              r.flows.front().network_rtt_ms.quantile(0.99),
              static_cast<unsigned long long>(r.flows.front().frames_decoded));
  std::filesystem::remove(path);
  return obs.write() ? 0 : 2;
}
