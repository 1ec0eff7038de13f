#pragma once
// Point-to-point wired link: serialization at a fixed rate plus fixed
// propagation delay, with an optional drop-tail buffer. Models the WAN
// segment and the AP's Ethernet uplink, which the paper treats as stable.
//
// "Stable" is the default, not a law: loss_prob models residual wire
// corruption, and set_fault_hook() lets a fault injector interpose on the
// delivery path without the link knowing anything about fault plans.
//
// Hot-path layout (PR 8): a packet crossing the link used to be moved
// through two chained closures (serialization end, then propagation end) —
// two ~200-byte memcpys into the event engine's callback nodes per hop.
// In-flight packets now park once in a sim::Pool and the two events carry
// only {this, slot index}: the event nodes stay within one cache line of
// payload. The Packet is moved once, into the pool at send; at delivery it
// is handed to the sink by rvalue reference straight from its slot, and
// only a consumer that parks it moves it again. Timing, ordering, and RNG
// draw order are unchanged — the golden fingerprint suites pin that.

#include <cstdint>
#include <deque>
#include <optional>

#include "net/packet.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace zhuge::net {

/// FIFO wired link. Packets entering while the link is busy queue in an
/// (optionally bounded) buffer. Delivery order is preserved.
class PointToPointLink {
 public:
  struct Config {
    double rate_bps = 1e9;            ///< serialization rate
    Duration prop_delay = Duration::millis(1);
    std::int64_t buffer_bytes = -1;   ///< -1 = unbounded
    Duration jitter_max = Duration::zero();  ///< uniform extra delay in [0, jitter_max]
    double loss_prob = 0.0;  ///< per-packet random loss (needs set_rng)
  };

  PointToPointLink(sim::Simulator& simulator, Config cfg, PacketHandler sink)
      : sim_(simulator), cfg_(cfg), sink_(std::move(sink)) {}

  /// Offer a packet to the link. Returns false if the buffer overflowed
  /// (packet dropped).
  bool send(Packet&& p) {
    if (cfg_.buffer_bytes >= 0 &&
        queued_bytes_ + p.size_bytes > cfg_.buffer_bytes) {
      ++drops_;
      ZHUGE_METRIC_INC("link.drops");
      ZHUGE_TRACE(sim_.now(), "link", "drop", {"reason_overflow", 1.0},
                  {"bytes", double(p.size_bytes)},
                  {"queued_bytes", double(queued_bytes_)});
      return false;
    }
    queued_bytes_ += p.size_bytes;
    queue_.push_back(pool_.put(std::move(p)));
    if (!busy_) transmit_next();
    return true;
  }

  /// Attach/replace the delivery sink.
  void set_sink(PacketHandler sink) { sink_ = std::move(sink); }

  /// Provide an RNG for jitter and random loss; without one, jitter_max
  /// and loss_prob are ignored.
  void set_rng(sim::Rng* rng) { rng_ = rng; }

  /// Interpose a handler between the wire and the sink (fault injection).
  /// Pass nullptr to remove. The hook receives every packet that survived
  /// serialization, propagation, and random loss.
  void set_fault_hook(PacketHandler hook) { fault_hook_ = std::move(hook); }

  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t random_drops() const { return random_drops_; }
  [[nodiscard]] std::int64_t queued_bytes() const { return queued_bytes_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  void transmit_next() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    const sim::Pool<Packet>::Index idx = queue_.front();
    queue_.pop_front();
    const std::uint32_t size_bytes = pool_.at(idx).size_bytes;
    queued_bytes_ -= size_bytes;
    ZHUGE_INVARIANT(sim_.now(), "link.nonnegative_bytes", queued_bytes_ >= 0,
                    "link byte accounting went negative");
    const Duration tx = Duration::from_seconds(
        static_cast<double>(size_bytes) * 8.0 / cfg_.rate_bps);
    sim_.schedule_after(tx, [this, idx] { on_serialized(idx); });
  }

  void on_serialized(sim::Pool<Packet>::Index idx) {
    if (rng_ != nullptr && cfg_.loss_prob > 0.0 && rng_->chance(cfg_.loss_prob)) {
      ++random_drops_;
      ZHUGE_METRIC_INC("link.drops");
      ZHUGE_TRACE(sim_.now(), "link", "drop", {"reason_random_loss", 1.0},
                  {"bytes", double(pool_.at(idx).size_bytes)});
      pool_.release(idx);
      transmit_next();
      return;
    }
    Duration extra = cfg_.prop_delay;
    if (rng_ != nullptr && cfg_.jitter_max > Duration::zero()) {
      extra += Duration::from_seconds(
          rng_->uniform(0.0, cfg_.jitter_max.to_seconds()));
    }
    sim_.schedule_after(extra, [this, idx] {
      // Hand the parked packet off in place; a consumer that keeps it
      // moves it out, and the slot is freed once the handler returns.
      Packet& p = pool_.at(idx);
      if (fault_hook_) {
        fault_hook_(std::move(p));
      } else if (sink_) {
        sink_(std::move(p));
      }
      pool_.release(idx);
    });
    transmit_next();
  }

  sim::Simulator& sim_;
  Config cfg_;
  PacketHandler sink_;
  PacketHandler fault_hook_;
  sim::Rng* rng_ = nullptr;
  sim::Pool<Packet> pool_;              ///< queued + in-flight packets
  std::deque<sim::Pool<Packet>::Index> queue_;
  std::int64_t queued_bytes_ = 0;
  bool busy_ = false;
  std::uint64_t drops_ = 0;         ///< buffer overflow (tail) drops
  std::uint64_t random_drops_ = 0;  ///< loss_prob drops
};

}  // namespace zhuge::net
