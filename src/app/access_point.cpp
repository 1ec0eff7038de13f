#include "app/access_point.hpp"

#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace zhuge::app {

namespace {

std::unique_ptr<queue::Qdisc> make_qdisc(QdiscKind kind, std::int64_t limit) {
  switch (kind) {
    case QdiscKind::kFifo:
      return std::make_unique<queue::DropTailFifo>(limit);
    case QdiscKind::kCoDel:
      return std::make_unique<queue::CoDel>(limit);
    case QdiscKind::kFqCoDel:
      return std::make_unique<queue::FqCoDel>(limit);
  }
  return nullptr;
}

}  // namespace

AccessPoint::AccessPoint(sim::Simulator& simulator, sim::Rng& rng,
                         wireless::Medium& medium, Config cfg,
                         PacketHandler to_client, PacketHandler to_server)
    : sim_(simulator),
      rng_(rng),
      cfg_(cfg),
      medium_(medium),
      to_client_(std::move(to_client)),
      to_server_(std::move(to_server)),
      abc_dequeue_rate_(Duration::millis(200)) {
  if (cfg_.mode == ApMode::kAbc) {
    abc_router_ = std::make_unique<baseline::AbcRouter>();
  }
}

void AccessPoint::register_station(std::uint32_t ip, wireless::Channel& channel,
                                   const StationConfig& scfg) {
  auto st = std::make_unique<Station>();
  st->kind = scfg.qdisc;
  st->qdisc = make_qdisc(scfg.qdisc, scfg.queue_limit_bytes);
  Station* raw = st.get();
  const auto on_dequeue = [this, raw](const Packet& p, TimePoint now) {
    on_station_dequeue(*raw, p, now);
  };
  const auto on_delivered = [this](const Packet& p, TimePoint now) {
    on_wireless_delivered(p, now);
  };
  if (scfg.link == LinkKind::kWifi) {
    st->wifi = std::make_unique<wireless::WifiLink>(
        sim_, rng_, channel, medium_, *st->qdisc, scfg.wifi, to_client_);
    st->wifi->set_dequeue_observer(on_dequeue);
    st->wifi->set_delivery_observer(on_delivered);
  } else {
    st->cell = std::make_unique<wireless::CellularLink>(sim_, rng_, channel,
                                                        *st->qdisc, to_client_);
    st->cell->set_dequeue_observer(on_dequeue);
    st->cell->set_delivery_observer(on_delivered);
  }
  // Re-registering an IP replaces its station.
  if (const auto* old = stations_.find(ip); old == nullptr || !(*old)->active) {
    ++active_stations_;
  }
  stations_.insert_or_assign(ip, std::move(st));
  index_tellers(ip);
  ZHUGE_METRIC_INC("ap.station_registered");
  ZHUGE_TRACE(sim_.now(), "ap", "register_station", {"ip", double(ip)});
}

std::size_t AccessPoint::unregister_station(std::uint32_t ip) {
  const auto* found = stations_.find(ip);
  if (found == nullptr || !(*found)->active) return 0;
  Station& st = **found;
  st.active = false;
  --active_stations_;
  // Flush optimiser state for every flow routed at this station. Collect
  // first: unregister_rtc_flow mutates the set being walked.
  std::vector<net::FlowId> victims;
  for (const auto& flow : rtc_flows_) {
    if (flow.dst_ip == ip) victims.push_back(flow);
  }
  std::size_t flushed = 0;
  for (const auto& flow : victims) flushed += unregister_rtc_flow(flow);
  // Drop whatever is still queued. Dequeueing directly bypasses the link's
  // observer, so no Fortune Teller sees these as departures.
  std::size_t dropped = 0;
  while (st.qdisc->dequeue(sim_.now()).has_value()) ++dropped;
  quiesced_drops_ += dropped;
  ZHUGE_METRIC_INC("ap.station_unregistered");
  ZHUGE_TRACE(sim_.now(), "ap", "unregister_station", {"ip", double(ip)},
              {"flushed", double(flushed)}, {"dropped", double(dropped)});
  return flushed;
}

AccessPoint::StationCounters AccessPoint::station_counters(std::uint32_t ip) {
  StationCounters c;
  const auto* found = stations_.find(ip);
  if (found == nullptr) return c;
  const Station& st = **found;
  c.qdisc_drops = st.qdisc->drops();
  if (st.wifi != nullptr) {
    c.airtime = st.wifi->airtime_used();
    c.delivered_packets = st.wifi->delivered_packets();
  } else {
    c.delivered_packets = st.cell->delivered_packets();
  }
  return c;
}

void AccessPoint::send_feedback(Packet&& p) {
  if (feedback_fault_hook_) {
    feedback_fault_hook_(std::move(p));
  } else {
    to_server_(std::move(p));
  }
}

void AccessPoint::register_rtc_flow(const net::FlowId& flow) {
  if (!rtc_flows_.insert(flow).second) return;  // already optimised
  flow_keys_.emplace(flow, next_flow_key_);
  if (flow_keys_.size() > next_flow_key_) ++next_flow_key_;
  add_optimizer(flow);
  index_tellers(flow.dst_ip);
}

void AccessPoint::add_optimizer(const net::FlowId& flow) {
  if (cfg_.mode == ApMode::kZhuge) {
    zhuge_flows_.insert_or_assign(
        flow, std::make_unique<core::ZhugeFlow>(
                  sim_, rng_, flow, cfg_.zhuge,
                  [this](Packet&& p) { send_feedback(std::move(p)); }));
  } else if (cfg_.mode == ApMode::kFastAck) {
    fastack_flows_.insert_or_assign(
        flow, std::make_unique<baseline::FastAck>());
  }
}

void AccessPoint::index_tellers(std::uint32_t ip) {
  const auto* found = stations_.find(ip);
  if (found == nullptr) return;
  std::vector<core::ZhugeFlow*>& tellers = (*found)->tellers;
  tellers.clear();
  for (const net::FlowId& flow : rtc_flows_) {
    if (flow.dst_ip != ip) continue;
    if (core::ZhugeFlow* zf = zhuge_flow(flow); zf != nullptr) tellers.push_back(zf);
  }
}

core::ZhugeFlow* AccessPoint::zhuge_flow(const net::FlowId& flow) {
  const std::unique_ptr<core::ZhugeFlow>* zf = zhuge_flows_.find(flow);
  return zf == nullptr ? nullptr : zf->get();
}

std::size_t AccessPoint::pending_feedback() const {
  std::size_t n = 0;
  for (const net::FlowId& flow : rtc_flows_) {
    if (const auto* zf = zhuge_flows_.find(flow); zf != nullptr) {
      n += (*zf)->pending_feedback();
    }
  }
  return n;
}

void AccessPoint::retire_flow_stats(const net::FlowId& flow,
                                    core::ZhugeFlow& zf) {
  retired_stats_.degrades += zf.degrade_count();
  retired_stats_.reactivates += zf.reactivate_count();
  retired_stats_.flushed_acks += zf.flushed_on_teardown();
  const auto key_it = flow_keys_.find(flow);
  const std::uint32_t key =
      key_it != flow_keys_.end() ? key_it->second : 0xffffffffu;
  for (obs::LadderTransition t : zf.ladder_log()) {
    t.flow_key = key;
    retired_ladder_log_.push_back(t);
  }
}

std::size_t AccessPoint::unregister_rtc_flow(const net::FlowId& flow) {
  rtc_flows_.erase(flow);
  fastack_flows_.erase(flow);
  std::size_t flushed = 0;
  if (core::ZhugeFlow* zf = zhuge_flow(flow); zf != nullptr) {
    flushed = zf->teardown();
    retire_flow_stats(flow, *zf);
    zhuge_flows_.erase(flow);
    index_tellers(flow.dst_ip);
    ZHUGE_METRIC_INC("ap.flow_unregistered");
    ZHUGE_TRACE(sim_.now(), "ap", "unregister_flow",
                {"flushed", double(flushed)});
  }
  return flushed;
}

void AccessPoint::restart_optimizer() {
  ++retired_stats_.optimizer_restarts;
  std::size_t flushed = 0;
  for (const net::FlowId& flow : rtc_flows_) {
    if (core::ZhugeFlow* zf = zhuge_flow(flow); zf != nullptr) {
      flushed += zf->teardown();
      retire_flow_stats(flow, *zf);
    }
  }
  // Every teller list points at the flows about to go: rebuild them all.
  zhuge_flows_.clear();
  fastack_flows_.clear();
  for (const net::FlowId& flow : rtc_flows_) add_optimizer(flow);
  // Every station with a teller has a flow in rtc_flows_. A restart is a
  // rare fault, so rebuilding a station's list once per flow is cheap.
  for (const net::FlowId& flow : rtc_flows_) index_tellers(flow.dst_ip);
  ZHUGE_METRIC_INC("ap.optimizer_restarts");
  ZHUGE_TRACE(sim_.now(), "ap", "optimizer_restart",
              {"flows", double(rtc_flows_.size())},
              {"flushed", double(flushed)});
}

void AccessPoint::inject_clock_jump(Duration delta) {
  ++retired_stats_.clock_jumps;
  for (const net::FlowId& flow : rtc_flows_) {
    if (core::ZhugeFlow* zf = zhuge_flow(flow); zf != nullptr) zf->on_clock_jump(delta);
  }
  ZHUGE_METRIC_INC("ap.clock_jumps");
  ZHUGE_TRACE(sim_.now(), "ap", "clock_jump", {"delta_ms", delta.to_millis()});
}

std::size_t AccessPoint::flush_feedback() {
  std::size_t flushed = 0;
  for (const net::FlowId& flow : rtc_flows_) {
    if (core::ZhugeFlow* zf = zhuge_flow(flow); zf != nullptr) flushed += zf->teardown();
  }
  return flushed;
}

AccessPoint::RobustnessStats AccessPoint::robustness() const {
  RobustnessStats s = retired_stats_;
  for (const net::FlowId& flow : rtc_flows_) {
    const auto* zf = zhuge_flows_.find(flow);
    if (zf == nullptr) continue;
    s.degrades += (*zf)->degrade_count();
    s.reactivates += (*zf)->reactivate_count();
    s.flushed_acks += (*zf)->flushed_on_teardown();
  }
  return s;
}

std::vector<obs::LadderTransition> AccessPoint::ladder_log() const {
  std::vector<obs::LadderTransition> log = retired_ladder_log_;
  for (const net::FlowId& flow : rtc_flows_) {
    const auto* zf = zhuge_flows_.find(flow);
    if (zf == nullptr) continue;
    const auto key_it = flow_keys_.find(flow);
    const std::uint32_t key =
        key_it != flow_keys_.end() ? key_it->second : 0xffffffffu;
    for (obs::LadderTransition t : (*zf)->ladder_log()) {
      t.flow_key = key;
      log.push_back(t);
    }
  }
  return log;
}

Duration AccessPoint::instantaneous_queue_delay(const queue::Qdisc& q,
                                                TimePoint now) {
  // `q` is the station queue the marked packet is about to enter; the
  // dequeue rate is the AP-wide aggregate, which is what ABC's router-side
  // token rate tracks on a shared airtime medium.
  const double rate = abc_dequeue_rate_.rate_bps(now).value_or(10e6);
  return Duration::from_seconds(static_cast<double>(q.byte_count()) * 8.0 /
                                std::max(rate, 1e3));
}

void AccessPoint::from_wan(Packet&& p) {
  const TimePoint now = sim_.now();
  ZHUGE_METRIC_INC("ap.downlink_packets");
  const auto* found = stations_.find(p.flow.dst_ip);
  if (found == nullptr || !(*found)->active) {
    // Quiesced (or unknown) station: the client left the network; its
    // traffic black-holes exactly like a real AP's for a deassociated STA.
    ++quiesced_drops_;
    return;
  }
  Station& st = **found;
  queue::Qdisc& dl_qdisc = *st.qdisc;
  if (abc_router_ != nullptr && p.is_tcp() && !p.tcp().is_ack) {
    p.tcp().abc_mark = abc_router_->mark(
        p.size_bytes, instantaneous_queue_delay(dl_qdisc, now), now);
  }
  core::ZhugeFlow* zf = zhuge_flow(p.flow);
  Duration predicted = Duration::zero();
  const bool is_rtp = p.is_rtp();
  net::RtpHeader rtp_copy;
  if (zf != nullptr) {
    predicted = zf->predict_downlink(p, dl_qdisc);
    if (is_rtp) rtp_copy = p.rtp();
    // Event-driven fail-open check: a downlink packet arriving while the
    // uplink has been silent is exactly the evidence the watchdog needs.
    zf->check_watchdog(now);
  }
  const bool accepted = st.offer(std::move(p));
  // Tail-dropped packets are never reported as received: the AP witnesses
  // the drop, so the loss stays visible to the sender.
  if (zf != nullptr && accepted) {
    zf->commit_downlink(is_rtp, is_rtp ? &rtp_copy : nullptr, predicted);
  }
}

void AccessPoint::on_station_dequeue(Station& st, const Packet& p, TimePoint now) {
  // Every station's departures feed one aggregate dequeue-rate window: the
  // ABC router's queue-delay estimate tracks the AP's total drain rate.
  // Only the ABC router reads it, so only an ABC AP records it.
  if (abc_router_ != nullptr) abc_dequeue_rate_.record(now, p.size_bytes);
  if (st.kind == QdiscKind::kFqCoDel) {
    // Per-flow sub-queues: each Fortune Teller observes only its own
    // flow's departures (§4's "calculation with queue disciplines").
    if (auto* zf = zhuge_flow(p.flow); zf != nullptr) {
      zf->on_dequeue(p, now, st.qdisc->byte_count_flow(p.flow) == 0);
    }
    return;
  }
  // Shared per-station queue: a packet's qLong is the *whole* queue drained
  // at the *total* dequeue rate, so every teller whose flow rides this
  // station must see every departure of this station's queue — feeding
  // each teller only its own flow's departures would overestimate delays
  // in competition (whole-queue bytes divided by one flow's rate share).
  if (st.tellers.empty()) return;
  const bool empty_after = st.qdisc->byte_count() == 0;
  for (core::ZhugeFlow* zf : st.tellers) zf->on_dequeue(p, now, empty_after);
}

void AccessPoint::on_wireless_delivered(const Packet& p, TimePoint now) {
  const auto* fa = fastack_flows_.find(p.flow);
  if (fa == nullptr) return;
  if (auto ack = (*fa)->on_wireless_delivered(p, now, p.uid ^ (1ULL << 63));
      ack.has_value()) {
    to_server_(std::move(*ack));
  }
}

void AccessPoint::from_client(Packet&& p) {
  // FastAck: suppress the client's own pure ACKs for optimised flows.
  if (cfg_.mode == ApMode::kFastAck &&
      fastack_flows_.contains(p.flow.reversed()) &&
      baseline::FastAck::should_drop_uplink(p)) {
    ++uplink_dropped_;
    return;
  }
  // Zhuge: the uplink handling for the reverse flow (drop a client TWCC,
  // hold an out-of-band ACK on the retreatable release queue, or pass).
  if (auto* zf = zhuge_flow(p.flow.reversed()); zf != nullptr) {
    const auto action = zf->handle_uplink(std::move(p));
    zf->check_watchdog(sim_.now());
    switch (action) {
      case core::UplinkAction::kDrop:
        ++uplink_dropped_;
        ZHUGE_METRIC_INC("ap.uplink_dropped");
        break;
      case core::UplinkAction::kDelay:
        ++uplink_delayed_;
        ZHUGE_METRIC_INC("ap.uplink_delayed");
        break;
      case core::UplinkAction::kForward:
        ZHUGE_METRIC_INC("ap.uplink_forwarded");
        break;
    }
    return;
  }
  to_server_(std::move(p));
}

}  // namespace zhuge::app
