// Example: a cloud-gaming stream (TCP + Copa) on a fluctuating 5G link.
//
// Cloud gaming demands a ~96 ms end-to-end budget (Kämäräinen et al.,
// cited in the paper's intro). We stream over a City-5G-like channel with
// mmWave blockage fades and compare the AP modes: plain, FastAck
// (IMC '17), ABC (NSDI '20, needs host changes), and Zhuge.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/cloud_gaming

#include <cstdio>

#include "app/scenario.hpp"
#include "obs/session.hpp"

using namespace zhuge;

namespace {

app::MultiStationResult run(app::ApMode mode, app::SpecFlowKind cca) {
  app::ScenarioSpec spec;
  spec.name = "cloud_gaming";
  spec.duration_s = 180;
  spec.seed = 99;
  spec.ap_mode = mode;
  spec.wan_one_way_ms = 10;  // nearby edge server
  app::StationGroupSpec phone;
  phone.link = app::LinkKind::kCellular;
  phone.trace_class = trace::TraceKind::kCity5G;
  phone.trace_seed = 12;
  spec.stations = {phone};
  app::SpecFlow stream;
  stream.kind = cca;
  stream.zhuge = true;
  stream.fps = 60;  // gaming stream
  stream.max_bitrate_mbps = 8;
  spec.flows = {stream};
  return app::run_multi_station(spec);
}

void report(const char* label, const app::MultiStationResult& r) {
  const auto& f = r.flows.front();
  // 96 ms budget minus ~2 frame-times of encode/decode ~= 60 ms transport.
  const double budget_ms = 96.0;
  std::printf("  %-12s frame>budget %6.3f%% | P99 frame %6.1f ms | "
              "frames %5llu/%llu | stream %4.2f Mbps\n",
              label, 100.0 * f.frame_delay_ms.ratio_above(budget_ms),
              f.frame_delay_ms.quantile(0.99),
              static_cast<unsigned long long>(f.frames_decoded),
              static_cast<unsigned long long>(f.frames_sent), f.goodput_bps / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs(argc, argv);  // --trace/--metrics/--attrib, as in figures
  if (!obs.only_obs_flags(argv[0])) return 2;
  std::printf("cloud gaming over a City-5G-like link (60 fps, Copa over TCP)\n");
  std::printf("(the paper's intro: cloud gaming demands <96 ms; 5G mmWave fades\n"
              " are exactly the tail events Zhuge targets)\n\n");
  report("plain AP", run(app::ApMode::kNone, app::SpecFlowKind::kTcpCopa));
  report("FastAck AP", run(app::ApMode::kFastAck, app::SpecFlowKind::kTcpCopa));
  report("ABC", run(app::ApMode::kAbc, app::SpecFlowKind::kTcpAbc));
  report("Zhuge AP", run(app::ApMode::kZhuge, app::SpecFlowKind::kTcpCopa));

  std::printf("\nZhuge delays Copa's ACKs at the AP by the predicted queueing\n"
              "deltas, so the sender backs off before a blockage fade strands a\n"
              "whole flight of frames — without touching the game server (unlike\n"
              "ABC, which needs a new sender CCA and receiver echo support).\n");
  return obs.write() ? 0 : 2;
}
