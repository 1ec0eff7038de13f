#pragma once
// Point-to-point wired link: serialization at a fixed rate plus fixed
// propagation delay, with an optional drop-tail buffer. Models the WAN
// segment and the AP's Ethernet uplink, which the paper treats as stable.
//
// "Stable" is the default, not a law: loss_prob models residual wire
// corruption, and set_fault_hook() lets a fault injector interpose on the
// delivery path without the link knowing anything about fault plans.
//
// Closed form: a FIFO link at a fixed rate needs no event to find out when
// a packet leaves the wire. At send() the packet's serialization starts at
// max(now, free_at) and ends at free_at = start + size·8/rate, so the one
// event a packet costs is its delivery at free_at + prop_delay + jitter.
// The packet parks once in a sim::Pool and that event carries only
// {this, slot index}; at delivery the packet is handed to the sink by
// rvalue reference straight from its slot.
//
// RNG draw order: loss and then (for a survivor) jitter are drawn at send
// time. A model with a serialization-end event would draw them there;
// both visit packets FIFO and draw nothing else in between, so on a
// link-owned Rng every packet gets the same draws (tests/prop_test.cpp
// checks this against such a two-event model). A shared Rng would see the
// link's draws earlier.
//
// Drop-tail: the buffer holds the admitted packets whose serialization has
// not started by now. Their (start, bytes) are kept in start order and the
// ones that started are drained at each send(), so the check is exact
// without a serialization-end event.

#include <algorithm>
#include <cstdint>

#include "net/packet.hpp"
#include "obs/invariants.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"
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
    const TimePoint now = sim_.now();
    if (cfg_.buffer_bytes >= 0) {
      while (!waiting_.empty() && waiting_.front().start <= now) {
        queued_bytes_ -= waiting_.front().bytes;
        waiting_.pop_front();
      }
      ZHUGE_INVARIANT(now, "link.nonnegative_bytes", queued_bytes_ >= 0,
                      "link byte accounting went negative");
      if (queued_bytes_ + p.size_bytes > cfg_.buffer_bytes) {
        ++drops_;
        ZHUGE_METRIC_INC("link.drops");
        ZHUGE_TRACE(now, "link", "drop", {"reason_overflow", 1.0},
                    {"bytes", double(p.size_bytes)},
                    {"queued_bytes", double(queued_bytes_)});
        return false;
      }
    }
    const TimePoint start = std::max(now, free_at_);
    free_at_ = start + Duration::from_seconds(
                           static_cast<double>(p.size_bytes) * 8.0 / cfg_.rate_bps);
    if (cfg_.buffer_bytes >= 0 && start > now) {
      waiting_.push_back({start, p.size_bytes});
      queued_bytes_ += p.size_bytes;
    }
    if (rng_ != nullptr && cfg_.loss_prob > 0.0 && rng_->chance(cfg_.loss_prob)) {
      ++random_drops_;
      ZHUGE_METRIC_INC("link.drops");
      ZHUGE_TRACE(now, "link", "drop", {"reason_random_loss", 1.0},
                  {"bytes", double(p.size_bytes)});
      return true;
    }
    Duration extra = cfg_.prop_delay;
    if (rng_ != nullptr && cfg_.jitter_max > Duration::zero()) {
      extra += Duration::from_seconds(
          rng_->uniform(0.0, cfg_.jitter_max.to_seconds()));
    }
    const sim::Pool<Packet>::Index idx = pool_.put(std::move(p));
    sim_.schedule_at(free_at_ + extra, [this, idx] {
      // Hand the parked packet off in place; a consumer that keeps it
      // moves it out, and the slot is freed once the handler returns.
      Packet& q = pool_.at(idx);
      if (fault_hook_) {
        fault_hook_(std::move(q));
      } else if (sink_) {
        sink_(std::move(q));
      }
      pool_.release(idx);
    });
    return true;
  }

  /// Provide an RNG for jitter and random loss; without one, jitter_max
  /// and loss_prob are ignored.
  void set_rng(sim::Rng* rng) { rng_ = rng; }

  /// Interpose a handler between the wire and the sink (fault injection).
  /// Pass nullptr to remove. The hook receives every packet that survived
  /// serialization, propagation, and random loss.
  void set_fault_hook(PacketHandler hook) { fault_hook_ = std::move(hook); }

  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t random_drops() const { return random_drops_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  /// An admitted packet still waiting for the wire (finite buffer only).
  struct Waiting {
    TimePoint start;  ///< its serialization start
    std::uint32_t bytes;
  };

  sim::Simulator& sim_;
  Config cfg_;
  PacketHandler sink_;
  PacketHandler fault_hook_;
  sim::Rng* rng_ = nullptr;
  sim::Pool<Packet> pool_;       ///< in-flight packets
  TimePoint free_at_;            ///< when the wire finishes its last packet
  sim::Ring<Waiting> waiting_;   ///< in start order
  std::int64_t queued_bytes_ = 0;
  std::uint64_t drops_ = 0;         ///< buffer overflow (tail) drops
  std::uint64_t random_drops_ = 0;  ///< loss_prob drops
};

}  // namespace zhuge::net
