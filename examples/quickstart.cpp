// Quickstart: one GCC/RTP video flow over a fluctuating WiFi channel,
// with and without Zhuge on the access point. Prints the paper's headline
// metrics side by side.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <cstdlib>
#include <string>

#include "app/scenario.hpp"
#include "app/spec.hpp"
#include "obs/session.hpp"

using namespace zhuge;

namespace {

/// Every run is a declarative spec: one station whose downlink follows a
/// Restaurant-WiFi-like (W1) trace, one RTP/GCC 1080p24 flow asking for
/// AP optimisation, 120 s at seed 42. Only the AP mode differs.
app::ScenarioSpec spec(const char* ap_mode) {
  const std::string text = std::string(R"({
    "name": "quickstart", "duration_s": 120, "warmup_s": 5, "seed": 42,
    "ap_mode": ")") + ap_mode + R"(",
    "stations": [ { "trace": { "class": "W1", "seed": 7 } } ],
    "flows": [ { "kind": "rtp_gcc", "station": 0, "zhuge": true, "fps": 24 } ]
  })";
  std::string err;
  const auto parsed = app::parse_scenario_spec(text, &err);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "spec: %s\n", err.c_str());
    std::exit(1);
  }
  return *parsed;
}

void report(const char* label, const app::MultiStationResult& r) {
  const auto& f = r.flows.front();
  std::printf("%-14s P50 RTT %6.1f ms | P99 RTT %7.1f ms | RTT>200ms %5.2f%% | "
              "frame>400ms %5.2f%% | goodput %5.2f Mbps\n",
              label, f.network_rtt_ms.quantile(0.50), f.network_rtt_ms.quantile(0.99),
              100.0 * f.network_rtt_ms.ratio_above(200.0),
              100.0 * f.frame_delay_ms.ratio_above(400.0), f.goodput_bps / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs(argc, argv);  // --trace/--metrics/--attrib, as in figures
  if (!obs.only_obs_flags(argv[0])) return 2;
  std::printf("zhuge-rtc quickstart: GCC/RTP over Restaurant-WiFi-like channel\n\n");

  const auto baseline = app::run_multi_station(spec("none"));
  report("Gcc+FIFO", baseline);
  const auto zhuge_run = app::run_multi_station(spec("zhuge"));
  report("Gcc+Zhuge", zhuge_run);

  std::printf("\nevents executed: baseline %llu, zhuge %llu\n",
              static_cast<unsigned long long>(baseline.events_executed),
              static_cast<unsigned long long>(zhuge_run.events_executed));
  return 0;
}
