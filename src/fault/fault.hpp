#pragma once
// Deterministic fault injection at packet-handler boundaries.
//
// An Injector wraps any PacketHandler (a link's delivery sink, the AP's
// from_client entry, ...) and applies configured adverse conditions on the
// way through: Gilbert-Elliott burst loss, independent random loss,
// duplication, reordering, scheduled blackouts, and fade windows that add
// latency. Everything is driven by the simulation clock and a dedicated
// PCG substream, so a faulty run is exactly as reproducible as a clean
// one — same (config, seed) in, same packet-level outcome out.
//
// Scenario-level faults that are not per-packet — AP mid-flow restarts
// and AP clock jumps — are described by FaultPlan and scheduled by the
// scenario harness (src/app/scenario.cpp), which also decides where each
// injector sits (WAN ingress, uplink wireless delivery, ...).

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace zhuge::fault {

using sim::Duration;
using sim::TimePoint;

/// Two-state Gilbert-Elliott burst-loss model, advanced once per packet.
struct GilbertElliott {
  double p_enter_bad = 0.0;  ///< P(good -> bad) per packet; 0 disables
  double p_exit_bad = 0.25;  ///< P(bad -> good) per packet
  double loss_good = 0.0;    ///< per-packet loss prob in the good state
  double loss_bad = 1.0;     ///< per-packet loss prob in the bad state

  [[nodiscard]] bool enabled() const { return p_enter_bad > 0.0; }

  friend bool operator==(const GilbertElliott&, const GilbertElliott&) = default;
};

/// Half-open absolute-time window [start, end).
struct Window {
  TimePoint start;
  TimePoint end;

  [[nodiscard]] bool contains(TimePoint t) const { return t >= start && t < end; }

  friend bool operator==(const Window&, const Window&) = default;
};

/// Per-boundary fault configuration. Defaults inject nothing.
struct InjectorConfig {
  double loss_prob = 0.0;          ///< independent per-packet loss
  GilbertElliott burst{};          ///< burst loss (on top of loss_prob)
  double dup_prob = 0.0;           ///< per-packet duplication
  double reorder_prob = 0.0;       ///< per-packet late delivery
  Duration reorder_delay = Duration::millis(5);  ///< how late a reordered packet lands
  double spike_prob = 0.0;         ///< per-packet delay spike
  Duration spike_delay = Duration::millis(80);   ///< spike magnitude
  std::vector<Window> blackouts;   ///< drop everything inside these windows
  Duration fade_delay = Duration::zero();        ///< extra latency during fades
  std::vector<Window> fades;       ///< fade_delay applies inside these windows
  /// When non-empty, the probabilistic faults (loss_prob, burst, dup,
  /// reorder) apply only inside these windows — chaos cases use this so a
  /// fault *clears* and recovery can be asserted. Blackouts and fades are
  /// already windowed.
  std::vector<Window> active;
  /// When set, only feedback packets (RTCP, or TCP ACK-only segments) go
  /// through the fault pipeline; everything else passes straight to the
  /// sink without consuming a single RNG draw, so adding a feedback-path
  /// fault never perturbs co-located data traffic.
  bool only_feedback = false;

  [[nodiscard]] bool any() const {
    return loss_prob > 0.0 || burst.enabled() || dup_prob > 0.0 ||
           reorder_prob > 0.0 || spike_prob > 0.0 || !blackouts.empty() ||
           (fade_delay > Duration::zero() && !fades.empty());
  }

  friend bool operator==(const InjectorConfig&, const InjectorConfig&) = default;
};

/// An AP clock step (NTP-style) applied at an instant.
struct ClockJump {
  TimePoint at;
  Duration delta;  ///< positive = clock leaps forward

  friend bool operator==(const ClockJump&, const ClockJump&) = default;
};

/// Scenario-level fault plan: one injector per boundary the harness wraps,
/// plus the non-packet faults the harness schedules itself.
struct FaultPlan {
  InjectorConfig downlink_wan{};       ///< servers -> AP wired ingress
  InjectorConfig uplink_wireless{};    ///< client -> AP wireless delivery
  InjectorConfig downlink_wireless{};  ///< AP -> client wireless delivery
  InjectorConfig uplink_wan{};         ///< AP -> servers wired delivery
  /// Control-loop boundaries: the AP-rewritten feedback on its way back to
  /// the sender (OOB delay-token ACKs and AP-constructed TWCC), and the
  /// client -> AP uplink RTCP before the AP sees it. Both default to
  /// feedback-only filtering; the harness enforces it at build time.
  InjectorConfig ap_feedback{};        ///< AP -> sender rewritten feedback
  InjectorConfig uplink_rtcp{};        ///< client -> AP feedback ingress
  std::vector<ClockJump> clock_jumps;  ///< steps applied to the AP clock
  std::vector<TimePoint> ap_restarts;  ///< mid-flow AP state wipes

  [[nodiscard]] bool any() const {
    return downlink_wan.any() || uplink_wireless.any() ||
           downlink_wireless.any() || uplink_wan.any() || ap_feedback.any() ||
           uplink_rtcp.any() || !clock_jumps.empty() || !ap_restarts.empty();
  }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// PacketHandler wrapper applying InjectorConfig deterministically.
class Injector {
 public:
  /// `rng` is taken by value: each injector owns an independent substream
  /// so adding faults at one boundary never perturbs another boundary's
  /// (or the channel's) randomness.
  Injector(sim::Simulator& simulator, sim::Rng rng, InjectorConfig cfg,
           net::PacketHandler sink);

  /// Run one packet through the fault pipeline.
  void handle(net::Packet&& p);

  /// Adapter for wiring into PacketHandler slots.
  [[nodiscard]] net::PacketHandler as_handler() {
    return [this](net::Packet&& p) { handle(std::move(p)); };
  }

  // Counters (tests / chaos reporting).
  [[nodiscard]] std::uint64_t passed() const { return passed_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return random_drops_ + burst_drops_ + blackout_drops_;
  }
  [[nodiscard]] std::uint64_t random_drops() const { return random_drops_; }
  [[nodiscard]] std::uint64_t burst_drops() const { return burst_drops_; }
  [[nodiscard]] std::uint64_t blackout_drops() const { return blackout_drops_; }
  [[nodiscard]] std::uint64_t duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t reordered() const { return reordered_; }
  [[nodiscard]] std::uint64_t delay_spiked() const { return delay_spiked_; }
  [[nodiscard]] std::uint64_t bypassed() const { return bypassed_; }
  [[nodiscard]] bool in_burst() const { return burst_bad_; }

  /// The only_feedback match: control traffic carrying delay feedback.
  [[nodiscard]] static bool is_feedback(const net::Packet& p) {
    return p.is_rtcp() || (p.is_tcp() && p.tcp().is_ack);
  }

 private:
  static bool in_windows(const std::vector<Window>& ws, TimePoint t) {
    for (const Window& w : ws) {
      if (w.contains(t)) return true;
    }
    return false;
  }

  void deliver(net::Packet&& p, Duration extra);

  sim::Simulator& sim_;
  sim::Rng rng_;
  InjectorConfig cfg_;
  net::PacketHandler sink_;

  bool burst_bad_ = false;
  std::uint64_t passed_ = 0;
  std::uint64_t random_drops_ = 0;
  std::uint64_t burst_drops_ = 0;
  std::uint64_t blackout_drops_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t delay_spiked_ = 0;
  std::uint64_t bypassed_ = 0;
};

}  // namespace zhuge::fault
