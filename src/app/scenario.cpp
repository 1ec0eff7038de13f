#include "app/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "cca/abc_sender.hpp"
#include "cca/bbr.hpp"
#include "cca/copa.hpp"
#include "cca/cubic.hpp"
#include "fault/fault.hpp"
#include "net/link.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "queue/fifo.hpp"
#include "rtc/video.hpp"
#include "sim/lookup_table.hpp"
#include "sim/substreams.hpp"
#include "trace/synthetic.hpp"
#include "transport/rtp_receiver.hpp"
#include "transport/rtp_sender.hpp"
#include "transport/tcp_receiver.hpp"
#include "transport/tcp_sender.hpp"

namespace zhuge::app {

namespace {

using net::FlowId;
using net::Packet;
using sim::Duration;
using sim::TimePoint;

/// Period of the two Fig. 18 switches: the MCS re-roll ("mcs_reroll") and
/// the bulk competitor's on/off cycle ("onoff").
constexpr double kSwitchPeriodS = 30.0;

std::unique_ptr<cca::CongestionControl> make_tcp_cca(SpecFlowKind kind) {
  switch (kind) {
    case SpecFlowKind::kTcpCubic:
    case SpecFlowKind::kTcpBulk: return std::make_unique<cca::Cubic>();
    case SpecFlowKind::kTcpAbc: return std::make_unique<cca::AbcSender>();
    case SpecFlowKind::kTcpCopa: return std::make_unique<cca::Copa>();
    default: return std::make_unique<cca::Bbr>();
  }
}

/// One live flow of a run: endpoints plus metric sinks. The transport
/// endpoints own timer-cancelling destructors, so destroying an MFlow
/// mid-run (churn departure) leaves no dangling callbacks.
struct MFlow {
  FlowEvent ev;
  FlowId flow;

  std::unique_ptr<transport::RtpSender> rtp_sender;
  std::unique_ptr<transport::RtpReceiver> rtp_receiver;
  std::unique_ptr<transport::TcpSender> tcp_sender;
  std::unique_ptr<transport::TcpReceiver> tcp_receiver;
  std::unique_ptr<rtc::VideoEncoder> tcp_encoder;  ///< null for tcp_bulk
  std::uint32_t tcp_next_frame = 0;  ///< next TCP frame (or bulk chunk) id
  sim::EventId tick_id{};  ///< TCP frame / bulk tick; cancelled at departure

  rtc::FrameStats frame_stats;
  stats::Distribution network_rtt_ms;
  stats::Distribution downlink_owd_ms;
  std::uint64_t app_bytes_delivered = 0;  ///< post-warmup
  std::uint64_t packets_delivered = 0;
  double last_uplink_owd_ms = 0.0;
};

/// Everything alive during one run. Members are wired in construction
/// order; declaration order here is destruction-safety order.
class MultiScenario {
 public:
  MultiScenario(const ScenarioSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed) {
    build();
  }

  MultiStationResult run();

 private:
  void build();
  void build_injectors();
  void build_station(int index);
  void arrive(const FlowEvent& ev);
  void start_tcp_source(MFlow& f);
  void depart(std::uint32_t index);
  void finalize_flow(MFlow& f);
  void sample_active();
  void sample_series();
  void reroll_mcs();
  void set_station_mcs(int station, int mcs);
  void client_send_uplink(int station, Packet&& p);
  void server_receive(Packet&& p);
  void client_receive(Packet&& p);
  void handle_delivery_metrics(const Packet& p, MFlow& f);

  [[nodiscard]] static std::uint32_t station_ip(int station) {
    return static_cast<std::uint32_t>(100 + station);
  }

  ScenarioSpec spec_;
  std::uint64_t seed_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Rng> rng_;           ///< kScenarioMain: links, CCAs
  std::unique_ptr<sim::Rng> scenario_rng_;  ///< kScenarioAux: fades, MCS
                                            ///< re-rolls — identical
                                            ///< across AP modes
  net::PacketUidSource uids_;

  /// Downlink ABW traces for trace-driven stations. Declared before the
  /// channels, which keep raw pointers into them.
  std::vector<std::unique_ptr<trace::Trace>> station_traces_;
  std::vector<std::unique_ptr<wireless::Channel>> down_channels_;
  std::vector<std::unique_ptr<wireless::Channel>> up_channels_;
  std::unique_ptr<wireless::Medium> medium_;

  // Fault injectors (spec "faults" section), one per boundary, each on its
  // own RNG substream so enabling one never perturbs the channel/CCA
  // realisation of the clean run. Null = clean boundary; the handlers
  // below are chosen at build time, so a clean boundary costs nothing per
  // packet. Declared before ap_ and the links whose handlers call them.
  std::unique_ptr<fault::Injector> inj_downlink_wan_;       ///< WAN -> AP
  std::unique_ptr<fault::Injector> inj_uplink_wireless_;    ///< client -> AP
  std::unique_ptr<fault::Injector> inj_downlink_wireless_;  ///< AP -> client
  std::unique_ptr<fault::Injector> inj_uplink_wan_;         ///< AP -> servers
  std::unique_ptr<fault::Injector> inj_ap_feedback_;  ///< AP-rewritten fb -> WAN
  std::unique_ptr<fault::Injector> inj_uplink_rtcp_;  ///< client RTCP -> AP
  PacketHandler uplink_entry_;  ///< what a station uplink delivers into

  std::unique_ptr<AccessPoint> ap_;
  std::unique_ptr<net::PointToPointLink> wan_down_;
  std::unique_ptr<net::PointToPointLink> wan_up_;

  /// Per-station client uplink (over the shared medium for Wi-Fi
  /// stations); exactly one of `wifi` / `cell` is set.
  struct UplinkPath {
    std::unique_ptr<queue::DropTailFifo> qdisc;
    std::unique_ptr<wireless::WifiLink> wifi;
    std::unique_ptr<wireless::CellularLink> cell;
  };
  std::vector<UplinkPath> uplinks_;

  std::vector<FlowEvent> schedule_;
  /// Live flows by schedule index (null before arrival and after
  /// departure); end-of-run finalisation walks it in index order, which is
  /// part of the simulated outcome.
  std::vector<std::unique_ptr<MFlow>> active_;
  std::size_t live_flows_ = 0;
  /// Downlink 5-tuple -> live flow, resolved on every delivered packet.
  sim::LookupTable<FlowId, MFlow*, net::FlowIdHash> by_flow_;

  MultiStationResult result_;
  TimePoint warmup_end_;
  TimePoint run_end_;
  std::uint64_t invariants_at_start_ = 0;
  MFlow* series_flow_ = nullptr;  ///< flow 0 while live, when spec_.series
  std::uint64_t series_bin_bytes_ = 0;  ///< flow 0 bytes, current 50 ms bin
};

void MultiScenario::build_injectors() {
  const fault::FaultPlan& plan = spec_.fault_plan();
  const auto make = [this](const fault::InjectorConfig& cfg, sim::Rng rng,
                           bool feedback_only, PacketHandler sink) {
    std::unique_ptr<fault::Injector> inj;
    if (cfg.any()) {
      fault::InjectorConfig c = cfg;
      c.only_feedback = c.only_feedback || feedback_only;
      inj = std::make_unique<fault::Injector>(sim_, rng, c, std::move(sink));
    }
    return inj;
  };
  namespace ss = sim::substreams;
  const PacketHandler to_ap = [this](Packet&& p) { ap_->from_client(std::move(p)); };
  inj_downlink_wan_ =
      make(plan.downlink_wan, sim::Rng(seed_, ss::kFaultDownlinkWan), false,
           [this](Packet&& p) { ap_->from_wan(std::move(p)); });
  inj_uplink_wireless_ = make(plan.uplink_wireless,
                              sim::Rng(seed_, ss::kFaultUplinkWireless), false, to_ap);
  inj_downlink_wireless_ =
      make(plan.downlink_wireless, sim::Rng(seed_, ss::kFaultDownlinkWireless),
           false, [this](Packet&& p) { client_receive(std::move(p)); });
  inj_uplink_wan_ =
      make(plan.uplink_wan, sim::Rng(seed_, ss::kFaultUplinkWan), false,
           [this](Packet&& p) { server_receive(std::move(p)); });
  inj_ap_feedback_ =
      make(plan.ap_feedback, sim::Rng(seed_, ss::kFaultApFeedback), true,
           [this](Packet&& p) { wan_up_->send(std::move(p)); });
  // Client uplink chain: a survivor of the feedback-only RTCP fault still
  // crosses whatever uplink-wireless impairment the plan also configures.
  const PacketHandler after_rtcp =
      inj_uplink_wireless_ ? inj_uplink_wireless_->as_handler() : to_ap;
  inj_uplink_rtcp_ = make(plan.uplink_rtcp, sim::Rng(seed_, ss::kFaultUplinkRtcp),
                          true, after_rtcp);
  uplink_entry_ = inj_uplink_rtcp_ ? inj_uplink_rtcp_->as_handler() : after_rtcp;
}

void MultiScenario::build() {
  rng_ = std::make_unique<sim::Rng>(seed_, sim::substreams::kScenarioMain);
  scenario_rng_ = std::make_unique<sim::Rng>(seed_, sim::substreams::kScenarioAux);
  warmup_end_ = TimePoint::zero() + Duration::from_seconds(spec_.warmup_s);
  run_end_ = TimePoint::zero() + Duration::from_seconds(spec_.duration_s);

  result_.name = spec_.name;
  result_.seed = seed_;

  const int n_stations = spec_.station_count();
  medium_ = std::make_unique<wireless::Medium>(sim_, *rng_, spec_.interferers);
  build_injectors();

  // AP -> servers wired uplink.
  net::PointToPointLink::Config wan_cfg;
  wan_cfg.rate_bps = spec_.wan_rate_mbps * 1e6;
  wan_cfg.prop_delay = Duration::from_seconds(spec_.wan_one_way_ms / 1e3);
  wan_up_ = std::make_unique<net::PointToPointLink>(
      sim_, wan_cfg, [this](Packet&& p) { server_receive(std::move(p)); });
  if (inj_uplink_wan_) wan_up_->set_fault_hook(inj_uplink_wan_->as_handler());

  AccessPoint::Config apcfg;
  apcfg.mode = spec_.ap_mode;
  apcfg.zhuge = spec_.zhuge;
  ap_ = std::make_unique<AccessPoint>(
      sim_, *rng_, *medium_, apcfg,
      inj_downlink_wireless_
          ? inj_downlink_wireless_->as_handler()
          : PacketHandler([this](Packet&& p) { client_receive(std::move(p)); }),
      [this](Packet&& p) { wan_up_->send(std::move(p)); });
  // AP-rewritten-feedback fault boundary: everything the optimiser emits
  // towards the WAN (released OOB delay-token ACKs, AP-built TWCC,
  // forwarded client RTCP of optimised flows) detours through this
  // injector before the wired uplink — exactly the shortest control loop.
  if (inj_ap_feedback_) ap_->set_feedback_fault_hook(inj_ap_feedback_->as_handler());

  // Servers -> AP wired downlink.
  wan_down_ = std::make_unique<net::PointToPointLink>(
      sim_, wan_cfg, [this](Packet&& p) { ap_->from_wan(std::move(p)); });
  if (inj_downlink_wan_) wan_down_->set_fault_hook(inj_downlink_wan_->as_handler());

  for (int i = 0; i < n_stations; ++i) build_station(i);

  // Flow schedule: arrivals and mid-run departures, in index order so that
  // same-timestamp events resolve by the simulator's FIFO tie-break.
  schedule_ = expand_flow_schedule(spec_, seed_);
  result_.flows.resize(schedule_.size());
  active_.resize(schedule_.size());
  for (const auto& ev : schedule_) {
    auto& slot = result_.flows[ev.index];
    slot.index = ev.index;
    slot.kind = ev.kind;
    slot.station = ev.station;
    slot.zhuge = ev.zhuge;
    slot.start_s = ev.start_s;
    slot.stop_s = ev.stop_s;
    sim_.schedule_at(TimePoint::zero() + Duration::from_seconds(ev.start_s),
                     [this, ev] { arrive(ev); });
    if (ev.stop_s < spec_.duration_s) {
      sim_.schedule_at(TimePoint::zero() + Duration::from_seconds(ev.stop_s),
                       [this, idx = ev.index] { depart(idx); });
    }
  }

  // Station departures (deassociation): quiesce at leave_s.
  for (int i = 0; i < n_stations; ++i) {
    const double leave = spec_.station_group(i).leave_s;
    if (leave > 0 && leave < spec_.duration_s) {
      sim_.schedule_at(TimePoint::zero() + Duration::from_seconds(leave),
                       [this, ip = station_ip(i)] {
                         ap_->unregister_station(ip);
                       });
    }
  }

  sim_.schedule_after(Duration::millis(100), [this] { sample_active(); });
  if (spec_.series) {
    sim_.schedule_after(Duration::millis(50), [this] { sample_series(); });
  }
  if (spec_.mcs_reroll) {
    sim_.schedule_after(Duration::from_seconds(kSwitchPeriodS),
                        [this] { reroll_mcs(); });
  }
  // Scheduled non-packet faults: AP clock steps and optimiser restarts.
  for (const auto& jump : spec_.fault_plan().clock_jumps) {
    sim_.schedule_at(jump.at, [this, d = jump.delta] { ap_->inject_clock_jump(d); });
  }
  for (const auto& at : spec_.fault_plan().ap_restarts) {
    sim_.schedule_at(at, [this] { ap_->restart_optimizer(); });
  }
  invariants_at_start_ = obs::invariants().total();
}

void MultiScenario::build_station(int index) {
  const StationGroupSpec& g = spec_.station_group(index);
  const Duration duration = Duration::from_seconds(spec_.duration_s);
  // Trace-driven stations: the downlink ABW follows a synthetic trace of
  // the spec'd class, seeded per station so a dense group does not fade
  // in lockstep, or a fixed rate with an optional step. The uplink stays
  // in MCS mode (RTCP feedback is small; the paper's trace-driven runs
  // vary only the bottleneck direction).
  if (g.trace_class.has_value()) {
    station_traces_.push_back(std::make_unique<trace::Trace>(trace::make_trace(
        *g.trace_class,
        g.trace_seed.value_or(seed_) + static_cast<std::uint64_t>(index),
        duration)));
  } else if (g.rate_trace.mbps > 0) {
    const RateTraceSpec& t = g.rate_trace;
    station_traces_.push_back(std::make_unique<trace::Trace>(
        t.at_s < 0 ? trace::constant_trace(t.mbps * 1e6, duration)
                   : trace::step_trace(t.mbps * 1e6, t.to_mbps * 1e6,
                                       Duration::from_seconds(t.at_s), duration)));
  }
  if (g.trace_class.has_value() || g.rate_trace.mbps > 0) {
    down_channels_.push_back(
        std::make_unique<wireless::Channel>(station_traces_.back().get()));
  } else {
    down_channels_.push_back(std::make_unique<wireless::Channel>(g.mcs));
  }
  up_channels_.push_back(std::make_unique<wireless::Channel>(g.mcs));

  AccessPoint::StationConfig scfg;
  scfg.qdisc = g.qdisc;
  scfg.queue_limit_bytes = g.queue_limit_bytes;
  scfg.link = g.link;
  ap_->register_station(station_ip(index), *down_channels_.back(), scfg);

  // Client-side uplink path: a small FIFO over the station's own last hop.
  UplinkPath up;
  up.qdisc = std::make_unique<queue::DropTailFifo>(200 * 1500);
  if (g.link == LinkKind::kWifi) {
    wireless::WifiLink::Config ul_cfg;
    ul_cfg.max_agg_packets = 8;  // feedback packets are small and few
    up.wifi = std::make_unique<wireless::WifiLink>(
        sim_, *rng_, *up_channels_.back(), *medium_, *up.qdisc, ul_cfg,
        uplink_entry_);
  } else {
    up.cell = std::make_unique<wireless::CellularLink>(
        sim_, *rng_, *up_channels_.back(), *up.qdisc, uplink_entry_);
  }
  uplinks_.push_back(std::move(up));

  // Square-wave PHY fade. The phase draw comes from scenario_rng_ in
  // station order at build time, so the channel realisation is identical
  // across AP modes and flow schedules.
  if (g.fade.period_s > 0 && g.fade.depth_mcs > 0) {
    const double phase = scenario_rng_->uniform(0.0, g.fade.period_s);
    const int high = g.mcs;
    const int low = std::max(0, g.mcs - g.fade.depth_mcs);
    const Duration faded_for =
        Duration::from_seconds(g.fade.period_s * g.fade.duty);
    const Duration clear_for =
        Duration::from_seconds(g.fade.period_s * (1.0 - g.fade.duty));
    struct FadeTick {
      MultiScenario* s;
      int station;
      int high, low;
      Duration faded_for, clear_for;
      void operator()(bool faded) const {
        s->set_station_mcs(station, faded ? low : high);
        s->sim_.schedule_after(faded ? faded_for : clear_for,
                               [t = *this, faded] { t(!faded); });
      }
    };
    sim_.schedule_after(
        Duration::from_seconds(phase),
        [t = FadeTick{this, index, high, low, faded_for, clear_for}] {
          t(true);
        });
  }
}

void MultiScenario::set_station_mcs(int station, int mcs) {
  down_channels_[static_cast<std::size_t>(station)]->set_mcs(mcs);
  up_channels_[static_cast<std::size_t>(station)]->set_mcs(mcs);
  ZHUGE_TRACE(sim_.now(), "mstation", "fade", {"station", double(station)},
              {"mcs", double(mcs)});
}

void MultiScenario::reroll_mcs() {
  // One draw per MCS-mode station, in station order (Fig. 18 "mcs").
  for (int i = 0; i < spec_.station_count(); ++i) {
    if (down_channels_[static_cast<std::size_t>(i)]->trace_driven()) continue;
    set_station_mcs(i, static_cast<int>(scenario_rng_->uniform_int(6)));
  }
  sim_.schedule_after(Duration::from_seconds(kSwitchPeriodS),
                      [this] { reroll_mcs(); });
}

void MultiScenario::arrive(const FlowEvent& ev) {
  auto f = std::make_unique<MFlow>();
  f->ev = ev;
  const bool is_rtp = ev.kind == SpecFlowKind::kRtpGcc;
  f->flow = FlowId{/*src_ip=*/1, station_ip(ev.station),
                   /*src_port=*/5000,
                   static_cast<std::uint16_t>(6000 + ev.index % 50000),
                   is_rtp ? std::uint8_t{17} : std::uint8_t{6}};
  f->last_uplink_owd_ms = spec_.wan_one_way_ms + 2.0;

  if (ev.zhuge && spec_.ap_mode != ApMode::kNone) {
    ap_->register_rtc_flow(f->flow);
  }

  MFlow* fp = f.get();
  if (spec_.series && ev.index == 0) series_flow_ = fp;
  f->frame_stats.set_observer([this, fp](TimePoint capture, TimePoint decode) {
    const double delay_ms = (decode - capture).to_millis();
    // Kept apart from the per-flow frame_delay_ms, which has no warmup cut.
    if (decode >= warmup_end_) result_.agg_frame_delay_ms.add(delay_ms);
    if (fp == series_flow_) result_.series.frame_delay_ms.record(decode, delay_ms);
  });
  // Latency attribution: a flow is "optimized" when the AP actually runs
  // Zhuge for it, which is what the stage-resolved on/off comparison keys on.
  const bool span_opt = ev.zhuge && spec_.ap_mode != ApMode::kNone;
  f->frame_stats.set_span_observer(
      [this, span_opt](const obs::FrameSpan& s) {
        if (TimePoint(s.decode_ns) < warmup_end_) return;
        result_.attrib.record_frame(span_opt, s);
      });

  rtc::VideoConfig video;
  video.fps = ev.fps;
  video.max_bitrate_bps = ev.max_bitrate_mbps * 1e6;
  video.start_bitrate_bps =
      std::min(video.start_bitrate_bps, video.max_bitrate_bps);

  const int station = ev.station;
  if (is_rtp) {
    transport::RtpSender::Config scfg;
    scfg.ssrc = ev.index + 1;
    scfg.video = video;
    scfg.gcc.start_rate_bps = video.start_bitrate_bps;
    scfg.gcc.min_rate_bps = video.min_bitrate_bps;
    scfg.gcc.max_rate_bps = video.max_bitrate_bps;
    f->rtp_sender = std::make_unique<transport::RtpSender>(
        sim_, *rng_, f->flow, scfg, uids_,
        [this](Packet&& p) { wan_down_->send(std::move(p)); });
    transport::RtpReceiver::Config rcfg;
    rcfg.ssrc = scfg.ssrc;
    f->rtp_receiver = std::make_unique<transport::RtpReceiver>(
        sim_, rcfg, uids_,
        [this, station](Packet&& p) { client_send_uplink(station, std::move(p)); },
        f->frame_stats);
    f->rtp_sender->start();
  } else {
    f->tcp_sender = std::make_unique<transport::TcpSender>(
        sim_, f->flow, make_tcp_cca(ev.kind), uids_,
        [this](Packet&& p) { wan_down_->send(std::move(p)); });
    // The per-packet network RTT of a TCP flow is what a server-side
    // capture measures: data departure to ACK arrival. Zhuge's held ACKs
    // shift this curve forward (paper Fig. 10) without double-counting.
    f->tcp_sender->set_rtt_observer([this, fp](Duration rtt, TimePoint now) {
      if (now >= warmup_end_) fp->network_rtt_ms.add(rtt.to_millis());
      if (fp == series_flow_) result_.series.rtt_ms.record(now, rtt.to_millis());
    });
    transport::TcpReceiver::FrameCallback on_frame;
    if (ev.kind != SpecFlowKind::kTcpBulk) {
      f->tcp_encoder = std::make_unique<rtc::VideoEncoder>(video, *rng_);
      on_frame = [fp](std::uint32_t frame_id, TimePoint capture, TimePoint now) {
        fp->frame_stats.on_frame_decoded(capture, now);
        if (obs::attrib_enabled()) {
          // TCP-framed video has no jitter-buffer stages; synthesise the
          // capture->decode span so frame_e2e still covers these flows.
          obs::FrameSpan s;
          s.flow_key = fp->ev.index + 1;
          s.frame_id = frame_id;
          s.capture_ns = capture.count_ns();
          s.decode_ns = now.count_ns();
          fp->frame_stats.on_frame_span(s);
        }
      };
    }
    f->tcp_receiver = std::make_unique<transport::TcpReceiver>(
        sim_, uids_,
        [this, station](Packet&& p) { client_send_uplink(station, std::move(p)); },
        std::move(on_frame));
    start_tcp_source(*f);
  }

  by_flow_.insert_or_assign(f->flow, fp);
  active_[ev.index] = std::move(f);
  ++live_flows_;
  ++result_.arrivals;
  ZHUGE_METRIC_INC("mstation.arrivals");
  ZHUGE_TRACE(sim_.now(), "mstation", "arrive", {"flow", double(ev.index)},
              {"station", double(ev.station)});
}

void MultiScenario::start_tcp_source(MFlow& f) {
  if (f.tcp_encoder == nullptr) {
    // Bulk transfer: keep ~256 KB queued in 64 KB writes, every 20 ms.
    // With onoff the transfer starts paused and flips every kSwitchPeriodS.
    struct BulkTick {
      MultiScenario* s;
      MFlow* f;
      void operator()() const {
        auto& sender = *f->tcp_sender;
        const double since = s->sim_.now().to_seconds() - f->ev.start_s;
        const bool on =
            !f->ev.onoff ||
            static_cast<std::int64_t>(std::floor(since / kSwitchPeriodS)) % 2 == 1;
        if (on && sender.backlog_bytes() < 256 * 1024) {
          sender.write_frame(f->tcp_next_frame++, s->sim_.now(), 64 * 1024);
        }
        f->tick_id = s->sim_.schedule_after(Duration::millis(20), [t = *this] { t(); });
      }
    };
    f.tick_id = sim_.schedule_after(Duration::millis(20), [t = BulkTick{this, &f}] { t(); });
    return;
  }
  // Video over TCP: frames at fps tracking the delivery rate; the encoder
  // skips frames when the socket backlog exceeds ~100 ms of video (real
  // encoders stall rather than queue without bound).
  struct FrameTick {
    MultiScenario* s;
    MFlow* f;
    void operator()() const {
      auto& sender = *f->tcp_sender;
      const double hint =
          std::max(sender.congestion_control().pacing_rate_bps() * 0.85,
                   sender.delivery_rate_bps(s->sim_.now()) * 0.95);
      double target = hint > 0 ? hint : f->tcp_encoder->encoder_rate_bps();
      // Upward probe: rate-sampling CCAs (BBR) pace off their own
      // bandwidth estimate, which is in turn fed by what we offer —
      // tracking the hints alone is a stable fixed point at *any* rate,
      // so a fault that knocks the estimate down would pin the flow low
      // forever. Real encoders raise the offered bitrate while the socket
      // keeps up; congestion shows up as backlog and pulls the offer back
      // to the hints (next_frame_bytes clamps at max_bitrate).
      if (sender.backlog_bytes() == 0) {
        target = std::max(target, f->tcp_encoder->encoder_rate_bps() * 1.05);
      }
      const std::uint64_t bytes = f->tcp_encoder->next_frame_bytes(target);
      const double backlog_limit =
          std::max(f->tcp_encoder->encoder_rate_bps(), 1e5) * 0.10 / 8.0;
      if (static_cast<double>(sender.backlog_bytes()) < backlog_limit) {
        sender.write_frame(f->tcp_next_frame++, s->sim_.now(), bytes);
      }
      f->tick_id = s->sim_.schedule_after(f->tcp_encoder->frame_interval(),
                                          [t = *this] { t(); });
    }
  };
  f.tick_id = sim_.schedule_after(Duration::millis(1),
                                  [t = FrameTick{this, &f}] { t(); });
}

void MultiScenario::depart(std::uint32_t index) {
  if (active_[index] == nullptr) return;
  MFlow& f = *active_[index];
  sim_.cancel(f.tick_id);
  // Flush any feedback Zhuge still holds for the flow before its endpoints
  // disappear (the AckScheduler drains through the uplink handler, which
  // demuxes to a dead flow and counts as late -- matching a real AP that
  // releases buffered ACKs after the TCP connection closed).
  ap_->unregister_rtc_flow(f.flow);
  finalize_flow(f);
  if (&f == series_flow_) series_flow_ = nullptr;
  by_flow_.erase(f.flow);
  active_[index].reset();
  --live_flows_;
  ++result_.departures;
  ZHUGE_METRIC_INC("mstation.departures");
  ZHUGE_TRACE(sim_.now(), "mstation", "depart", {"flow", double(index)});
}

void MultiScenario::finalize_flow(MFlow& f) {
  MultiFlowResult& fr = result_.flows[f.ev.index];
  fr.network_rtt_ms = std::move(f.network_rtt_ms);
  fr.downlink_owd_ms = std::move(f.downlink_owd_ms);
  fr.frame_delay_ms = f.frame_stats.frame_delays_ms();
  fr.frames_decoded = f.frame_stats.frames_decoded();
  fr.frames_sent = f.rtp_sender    ? f.rtp_sender->frames_sent()
                   : f.tcp_encoder ? f.tcp_next_frame
                                   : 0;
  fr.packets_delivered = f.packets_delivered;
  const double lo = std::max(f.ev.start_s, spec_.warmup_s);
  const double hi = std::min(f.ev.stop_s, spec_.duration_s);
  fr.goodput_bps =
      hi > lo ? static_cast<double>(f.app_bytes_delivered) * 8.0 / (hi - lo)
              : 0.0;
}

void MultiScenario::sample_active() {
  result_.active_flows.record(sim_.now(), static_cast<double>(live_flows_));
  ZHUGE_METRIC_SET("mstation.active_flows", double(live_flows_));
  sim_.schedule_after(Duration::millis(100), [this] { sample_active(); });
}

void MultiScenario::sample_series() {
  if (const MFlow* f = series_flow_; f != nullptr) {
    double rate = 0.0;
    if (f->rtp_sender) {
      rate = f->rtp_sender->target_rate_bps();
    } else {
      const Duration srtt = f->tcp_sender->smoothed_rtt();
      rate = srtt > Duration::zero()
                 ? static_cast<double>(
                       f->tcp_sender->congestion_control().cwnd_bytes()) *
                       8.0 / srtt.to_seconds()
                 : 0.0;
    }
    result_.series.rate_bps.record(sim_.now(), rate);
    result_.series.goodput_bps.record(
        sim_.now(), static_cast<double>(series_bin_bytes_) * 8.0 / 0.05);
  }
  series_bin_bytes_ = 0;
  sim_.schedule_after(Duration::millis(50), [this] { sample_series(); });
}

void MultiScenario::client_send_uplink(int station, Packet&& p) {
  UplinkPath& up = uplinks_[static_cast<std::size_t>(station)];
  if (up.wifi != nullptr) {
    up.wifi->offer(std::move(p));
  } else {
    up.cell->offer(std::move(p));
  }
}

void MultiScenario::server_receive(Packet&& p) {
  MFlow* const* found = by_flow_.find(p.flow.reversed());
  if (found == nullptr) {
    ++result_.late_packets;
    return;
  }
  MFlow& f = **found;
  const double owd = (sim_.now() - p.sent_time).to_millis();
  if (owd > 0 && owd < 10e3) f.last_uplink_owd_ms = owd;
  if (f.rtp_sender && p.is_rtcp()) {
    f.rtp_sender->on_rtcp(p);
  } else if (f.tcp_sender && p.is_tcp()) {
    f.tcp_sender->on_ack(p);
  }
}

void MultiScenario::handle_delivery_metrics(const Packet& p, MFlow& f) {
  const TimePoint now = sim_.now();
  ++f.packets_delivered;
  if (&f == series_flow_) {
    // Flow-0 series cover the warmup too (the figures plot from t = 0).
    series_bin_bytes_ += p.size_bytes;
    if (f.rtp_sender != nullptr) {
      result_.series.rtt_ms.record(
          now, (now - p.sent_time).to_millis() + f.last_uplink_owd_ms);
    }
  }
  if (now < warmup_end_) return;
  const double down_ms = (now - p.sent_time).to_millis();
  f.downlink_owd_ms.add(down_ms);
  f.app_bytes_delivered += p.size_bytes;
  if (f.rtp_sender != nullptr) {
    // RTP network RTT: downlink OWD plus the latest measured uplink OWD
    // (TCP flows record sender-side RTT samples instead).
    f.network_rtt_ms.add(down_ms + f.last_uplink_owd_ms);
  }
  if (p.predicted_delay_ms >= 0.0) {
    const double actual_ms = (now - p.ap_enqueue_time).to_millis();
    result_.prediction_error_ms.add(std::abs(p.predicted_delay_ms - actual_ms));
    if (&f == series_flow_) {
      result_.series.predicted_vs_real_ms.emplace_back(p.predicted_delay_ms,
                                                       actual_ms);
    }
  }
  if (obs::attrib_enabled()) {
    const bool span_opt = f.ev.zhuge && spec_.ap_mode != ApMode::kNone;
    result_.attrib.record_packet(f.ev.index + 1, span_opt,
                                 p.sent_time.count_ns(),
                                 p.ap_enqueue_time.count_ns(),
                                 now.count_ns(), p.span);
  }
}

void MultiScenario::client_receive(Packet&& p) {
  MFlow* const* found = by_flow_.find(p.flow);
  if (found == nullptr) {
    ++result_.late_packets;
    return;
  }
  MFlow& f = **found;
  handle_delivery_metrics(p, f);
  if (f.rtp_receiver && p.is_rtp()) {
    f.rtp_receiver->on_rtp(p);
  } else if (f.tcp_receiver && p.is_tcp()) {
    f.tcp_receiver->on_data(p);
  }
}

MultiStationResult MultiScenario::run() {
  sim_.run_until(run_end_);

  // Drain held feedback while the topology is still alive, then finalise
  // the flows that ran to the end of the simulation.
  result_.flushed_acks_at_end = ap_->flush_feedback();
  result_.stranded_acks = ap_->pending_feedback();
  result_.robustness = ap_->robustness();
  result_.ladder_log = ap_->ladder_log();
  for (const auto* inj :
       {inj_downlink_wan_.get(), inj_uplink_wireless_.get(),
        inj_downlink_wireless_.get(), inj_uplink_wan_.get(),
        inj_ap_feedback_.get(), inj_uplink_rtcp_.get()}) {
    if (inj == nullptr) continue;
    result_.fault_drops += inj->dropped();
    result_.fault_duplicated += inj->duplicated();
    result_.fault_reordered += inj->reordered();
    result_.fault_delay_spiked += inj->delay_spiked();
    result_.fault_bypassed += inj->bypassed();
  }
  for (const std::unique_ptr<MFlow>& f : active_) {
    if (f == nullptr) continue;
    sim_.cancel(f->tick_id);
    finalize_flow(*f);
  }
  // Each RTT sample is stored once, per flow; the aggregate is their union.
  std::size_t rtt_samples = 0;
  for (const MultiFlowResult& fr : result_.flows) {
    rtt_samples += fr.network_rtt_ms.count();
  }
  result_.agg_network_rtt_ms.reserve(rtt_samples);
  for (const MultiFlowResult& fr : result_.flows) {
    result_.agg_network_rtt_ms.add_all(fr.network_rtt_ms);
  }

  const int n_stations = spec_.station_count();
  for (int i = 0; i < n_stations; ++i) {
    const AccessPoint::StationCounters c = ap_->station_counters(station_ip(i));
    StationResult sr;
    sr.airtime_s = c.airtime.to_seconds();
    sr.qdisc_drops = c.qdisc_drops;
    sr.delivered_packets = c.delivered_packets;
    result_.qdisc_drops += sr.qdisc_drops;
    result_.stations.push_back(sr);
  }
  result_.quiesced_drops = ap_->quiesced_drops();
  result_.events_executed = sim_.events_executed();
  result_.invariant_violations =
      obs::invariants().total() - invariants_at_start_;

  // Run-summary gauges.
  ZHUGE_METRIC_SET("mstation.flows_total", double(result_.flows.size()));
  ZHUGE_METRIC_SET("mstation.qdisc_drops", double(result_.qdisc_drops));
  ZHUGE_METRIC_SET("mstation.events_executed", double(result_.events_executed));
  return std::move(result_);
}

}  // namespace

MultiStationResult run_multi_station(const ScenarioSpec& spec) {
  return run_multi_station(spec, spec.seed);
}

MultiStationResult run_multi_station(const ScenarioSpec& spec,
                                     std::uint64_t seed) {
  MultiScenario s(spec, seed);
  return s.run();
}

stats::Distribution frame_rate_fps(const MultiStationResult& r, double from_s,
                                   double to_s) {
  const auto from = static_cast<std::size_t>(from_s);
  const auto to = static_cast<std::size_t>(to_s);
  std::vector<int> per_second(to + 1, 0);
  for (const auto& p : r.series.frame_delay_ms.points()) {
    const auto sec = static_cast<std::size_t>(p.t.to_seconds());
    if (sec <= to) ++per_second[sec];
  }
  stats::Distribution d;
  for (std::size_t s = from; s < to; ++s) d.add(per_second[s]);
  return d;
}

}  // namespace zhuge::app
