#pragma once
// The last-mile access point: per-station downlink qdisc + wireless link +
// optional in-AP optimisation (Zhuge, FastAck, or the ABC router). This is
// the only box the paper modifies — everything else (server, client) runs
// stock.
//
// Lookups and walks. Every downlink packet and every uplink feedback packet
// resolves its station and its optimiser state, so those lookups go
// through sim::LookupTable (hashed, no iteration API): station by
// `dst_ip`, Zhuge flow and FastAck flow by 5-tuple. A shared (FIFO/CoDel)
// station queue feeds every Zhuge teller riding it on each dequeue; each
// Station keeps that list itself, so a dequeue touches only its own
// station's flows.
//
// Walks that emit packets or build results visit flows in 5-tuple order,
// because that order is part of the simulated outcome (the serial of every
// flushed ACK, the order of the ladder log) and must not depend on a hash
// function: teardown on station quiesce, restart_optimizer(),
// flush_feedback() and ladder_log() walk the ordered `rtc_flows_` set and
// look each flow up, and a station's teller list is rebuilt in the same
// order whenever a Zhuge flow comes or goes.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "baseline/abc_router.hpp"
#include "baseline/fastack.hpp"
#include "core/zhuge.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "queue/codel.hpp"
#include "queue/fifo.hpp"
#include "queue/fq_codel.hpp"
#include "sim/lookup_table.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "wireless/cellular_link.hpp"
#include "wireless/channel.hpp"
#include "wireless/medium.hpp"
#include "wireless/wifi_link.hpp"

namespace zhuge::app {

using net::Packet;
using net::PacketHandler;
using sim::Duration;
using sim::TimePoint;

/// Which optimisation runs on the AP.
enum class ApMode : std::uint8_t { kNone, kZhuge, kFastAck, kAbc };

/// Downlink queue discipline.
enum class QdiscKind : std::uint8_t { kFifo, kCoDel, kFqCoDel };

/// Last-hop technology.
enum class LinkKind : std::uint8_t { kWifi, kCellular };

/// A wireless access point serving registered stations, each with its own
/// downlink qdisc and wireless last hop, plus an optional AP-side
/// optimisation module.
class AccessPoint {
 public:
  struct Config {
    ApMode mode = ApMode::kNone;
    core::ZhugeConfig zhuge{};
  };

  /// `to_client` receives packets that crossed the wireless downlink;
  /// `to_server` is the AP's wired uplink towards the WAN. Wi-Fi stations
  /// contend on `medium`.
  AccessPoint(sim::Simulator& simulator, sim::Rng& rng,
              wireless::Medium& medium, Config cfg, PacketHandler to_client,
              PacketHandler to_server);

  /// Per-station downlink attachment: each station gets its own qdisc and
  /// last hop — an AMPDU WifiLink contending on the AP's shared CSMA
  /// medium (so airtime is split the way the paper's testbed splits it,
  /// not per-flow), or a per-UE cellular link.
  struct StationConfig {
    QdiscKind qdisc = QdiscKind::kFifo;
    std::int64_t queue_limit_bytes = 300 * 1500;  ///< FIFO bufferbloat depth
    LinkKind link = LinkKind::kWifi;
    wireless::WifiLink::Config wifi{};
  };

  /// Attach a station reachable at client IP `ip`: downlink packets whose
  /// `flow.dst_ip == ip` go through the station's own qdisc and link.
  /// `channel` models that station's PHY (per-station MCS, fade or trace)
  /// and must outlive the AP.
  void register_station(std::uint32_t ip, wireless::Channel& channel,
                        const StationConfig& cfg);

  /// Quiesce a station: unregister its RTC flows (flushing held feedback),
  /// drop everything still queued for it, and black-hole subsequent
  /// downlink arrivals. The WifiLink object itself stays alive until the
  /// AP is destroyed — the CSMA medium may still hold a grant callback for
  /// it, so destroying it here would dangle. Returns feedback packets
  /// flushed from optimiser state.
  std::size_t unregister_station(std::uint32_t ip);

  /// Downlink counters of one station (quiesced ones included); all zero
  /// for an IP that was never registered. Cellular links use no medium
  /// airtime.
  struct StationCounters {
    Duration airtime = Duration::zero();
    std::uint64_t qdisc_drops = 0;
    std::uint64_t delivered_packets = 0;
  };
  [[nodiscard]] StationCounters station_counters(std::uint32_t ip);

  /// Number of currently active (non-quiesced) stations.
  [[nodiscard]] std::size_t active_station_count() const { return active_stations_; }

  /// Downlink packets black-holed because their station was quiesced (or
  /// never registered).
  [[nodiscard]] std::uint64_t quiesced_drops() const { return quiesced_drops_; }

  /// Downlink entry: a packet arrives from the WAN (Ethernet port) and is
  /// routed to its station.
  void from_wan(Packet&& p);

  /// Uplink entry: a packet arrives from the client over wireless.
  void from_client(Packet&& p);

  /// Interpose on the AP->sender *rewritten feedback* path: everything a
  /// ZhugeFlow emits towards the WAN (released OOB delay-token ACKs,
  /// AP-constructed TWCC, forwarded client RTCP of optimised flows) goes
  /// through `hook` instead of the wired uplink. Fault injection uses
  /// this to impair exactly the control loop and nothing else; pass an
  /// empty handler to restore the direct path.
  void set_feedback_fault_hook(PacketHandler hook) {
    feedback_fault_hook_ = std::move(hook);
  }

  /// Mark a flow (server->client direction) as an RTC flow to optimise —
  /// the paper's configurable IP list (§7.1).
  void register_rtc_flow(const net::FlowId& flow);

  /// Stop optimising a flow: flush its held feedback (nothing stranded),
  /// then destroy its per-flow state. Returns the number of packets
  /// flushed. Safe to call for unknown flows (returns 0).
  std::size_t unregister_rtc_flow(const net::FlowId& flow);

  /// Simulate an in-place optimiser restart (crash/upgrade): every
  /// per-flow optimiser state is flushed and wiped, then rebuilt fresh
  /// for the still-registered RTC flows. The data path (qdisc, wireless
  /// link) keeps running throughout.
  void restart_optimizer();

  /// The AP's clock jumps by `delta` relative to the rest of the network
  /// (NTP step, firmware reboot). Per-flow state rebases itself.
  void inject_clock_jump(Duration delta);

  /// Flush all held feedback of every optimised flow (end-of-run drain;
  /// the chaos harness asserts zero stranded ACKs afterwards). Returns
  /// packets flushed.
  std::size_t flush_feedback();

  /// Aggregated fail-open statistics across current and past flow
  /// incarnations (restart_optimizer() folds dying flows in).
  struct RobustnessStats {
    std::uint64_t degrades = 0;
    std::uint64_t reactivates = 0;
    std::uint64_t flushed_acks = 0;
    std::uint64_t optimizer_restarts = 0;
    std::uint64_t clock_jumps = 0;
  };
  [[nodiscard]] RobustnessStats robustness() const;

  /// Ladder transitions of every optimised flow, current and retired,
  /// stamped with a stable per-flow key (registration order). Unsorted
  /// across flows; obs::compute_recovery_slo sorts. Observability output
  /// only — never hashed into result fingerprints.
  [[nodiscard]] std::vector<obs::LadderTransition> ladder_log() const;

  /// Feedback packets/fortunes currently held by any optimised flow.
  [[nodiscard]] std::size_t pending_feedback() const;

  [[nodiscard]] core::ZhugeFlow* zhuge_flow(const net::FlowId& flow);
  [[nodiscard]] std::uint64_t uplink_delayed() const { return uplink_delayed_; }
  [[nodiscard]] std::uint64_t uplink_dropped() const { return uplink_dropped_; }

 private:
  /// One station's downlink: exactly one of `wifi` / `cell` is set.
  struct Station {
    QdiscKind kind = QdiscKind::kFifo;
    std::unique_ptr<queue::Qdisc> qdisc;
    std::unique_ptr<wireless::WifiLink> wifi;
    std::unique_ptr<wireless::CellularLink> cell;
    bool active = true;
    /// The Zhuge flows addressed to this station, in 5-tuple order: the
    /// tellers a shared-queue dequeue feeds.
    std::vector<core::ZhugeFlow*> tellers;

    bool offer(Packet&& p) {
      return wifi != nullptr ? wifi->offer(std::move(p)) : cell->offer(std::move(p));
    }
  };

  void send_feedback(Packet&& p);
  void add_optimizer(const net::FlowId& flow);
  void retire_flow_stats(const net::FlowId& flow, core::ZhugeFlow& zf);
  /// Rebuild station `ip`'s teller list from `rtc_flows_` (if registered).
  void index_tellers(std::uint32_t ip);
  void on_station_dequeue(Station& st, const Packet& p, TimePoint now);
  void on_wireless_delivered(const Packet& p, TimePoint now);
  [[nodiscard]] Duration instantaneous_queue_delay(const queue::Qdisc& q,
                                                   TimePoint now);

  sim::Simulator& sim_;
  sim::Rng& rng_;
  Config cfg_;
  wireless::Medium& medium_;
  PacketHandler to_client_;  ///< copy shared with every station link
  PacketHandler to_server_;

  /// Stations keyed by client IP, found per packet and never iterated
  /// (a station's flows are named by rtc_flows_).
  sim::LookupTable<std::uint32_t, std::unique_ptr<Station>> stations_;
  std::size_t active_stations_ = 0;
  std::uint64_t quiesced_drops_ = 0;

  /// The registered RTC flows in 5-tuple order: the order of every walk
  /// over per-flow optimiser state (see the top of this file).
  std::set<net::FlowId> rtc_flows_;
  /// Per-flow optimiser state of exactly the flows in rtc_flows_ (Zhuge
  /// or FastAck mode), found per packet and never iterated.
  sim::LookupTable<net::FlowId, std::unique_ptr<core::ZhugeFlow>, net::FlowIdHash>
      zhuge_flows_;
  sim::LookupTable<net::FlowId, std::unique_ptr<baseline::FastAck>, net::FlowIdHash>
      fastack_flows_;
  std::unique_ptr<baseline::AbcRouter> abc_router_;
  stats::WindowedRate abc_dequeue_rate_;

  std::uint64_t uplink_delayed_ = 0;
  std::uint64_t uplink_dropped_ = 0;

  /// Fault-injection interposer on the rewritten-feedback path; empty =
  /// feedback goes straight to to_server_.
  PacketHandler feedback_fault_hook_;

  // Fail-open accounting retired from flows destroyed by
  // unregister/restart, so robustness() stays cumulative.
  RobustnessStats retired_stats_;

  /// Stable flow keys for ladder_log() (assigned in registration order;
  /// an unregister/re-register keeps the original key).
  std::map<net::FlowId, std::uint32_t> flow_keys_;
  std::uint32_t next_flow_key_ = 0;
  std::vector<obs::LadderTransition> retired_ladder_log_;
};

}  // namespace zhuge::app
