// Example: a video-conference call (RTP/RTCP + GCC) on a busy home WiFi.
//
// Someone starts a large file transfer (scp-style bulk TCP) on the same
// access point every 30 seconds. We run the call three ways — plain FIFO
// AP, CoDel AP, and a Zhuge AP — and report what the viewer experiences.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/video_conference

#include <cstdio>

#include "app/scenario.hpp"
#include "obs/session.hpp"

using namespace zhuge;

namespace {

app::MultiStationResult run(app::ApMode mode, app::QdiscKind qdisc) {
  app::ScenarioSpec spec;
  spec.name = "video_conference";
  spec.duration_s = 180;
  spec.seed = 2024;
  spec.ap_mode = mode;
  app::StationGroupSpec laptop;
  laptop.mcs = 4;  // 39 Mbps PHY, shared with the file transfer
  laptop.qdisc = qdisc;
  spec.stations = {laptop};
  app::SpecFlow call;  // WebRTC-style media + TWCC feedback
  call.zhuge = true;
  call.fps = 24;
  call.max_bitrate_mbps = 2.5;  // 1080p conference stream
  app::SpecFlow transfer;  // file transfer toggling every 30 s
  transfer.kind = app::SpecFlowKind::kTcpBulk;
  transfer.onoff = true;
  spec.flows = {call, transfer};
  return app::run_multi_station(spec);
}

void report(const char* label, const app::MultiStationResult& r) {
  const auto& f = r.flows.front();
  std::printf("  %-12s P50 RTT %5.1f ms | P99 RTT %6.1f ms | RTT>200ms %6.3f%% | "
              "frame>400ms %6.3f%% | %4llu/%llu frames\n",
              label, f.network_rtt_ms.quantile(0.5), f.network_rtt_ms.quantile(0.99),
              100.0 * f.network_rtt_ms.ratio_above(200.0),
              100.0 * f.frame_delay_ms.ratio_above(400.0),
              static_cast<unsigned long long>(f.frames_decoded),
              static_cast<unsigned long long>(f.frames_sent));
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs(argc, argv);  // --trace/--metrics/--attrib, as in figures
  if (!obs.only_obs_flags(argv[0])) return 2;
  std::printf("video conference on home WiFi with a periodic file transfer\n");
  std::printf("(GCC over RTP/RTCP; the transfer toggles every 30 s for 3 min)\n\n");

  report("FIFO AP", run(app::ApMode::kNone, app::QdiscKind::kFifo));
  report("CoDel AP", run(app::ApMode::kNone, app::QdiscKind::kCoDel));
  report("Zhuge AP", run(app::ApMode::kZhuge, app::QdiscKind::kFifo));

  std::printf("\nZhuge's Feedback Updater builds the TWCC reports at the AP from\n"
              "predicted per-packet delays, so GCC learns about the transfer's\n"
              "queue before delayed frames ever reach the viewer.\n");
  return 0;
}
