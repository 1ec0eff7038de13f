#pragma once
// Release scheduler for delayed out-of-band feedback packets.
//
// The out-of-band updater does not just compute a hold time and fire a
// one-shot timer: when the Fortune Teller observes the queue *draining*
// (negative delay deltas), already-scheduled holds are retreated so the
// good news reaches the sender just as fast as the bad news did — a
// one-shot timer would freeze the release clock at its most pessimistic
// value and black the feedback stream out after the congestion has passed.
// Retreats shift every pending release by the same amount (clamped at
// now), which preserves order.
//
// Robustness contract (chaos-tested):
//  * flush() releases every held packet immediately — callers invoke it on
//    flow teardown and on fail-open degradation, so an ACK is never
//    stranded inside a dying or bypassed flow object;
//  * an optional max-hold bound turns "no ACK held past the cap" into a
//    checked invariant (feedback.hold_bound) instead of an assumption;
//  * the destructor cancels the pending timer — a flow torn down mid-run
//    (AP restart) must not leave a dangling callback in the simulator.

#include "net/packet.hpp"
#include "obs/invariants.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"

namespace zhuge::core {

using sim::Duration;
using sim::TimePoint;

/// Ordered, retreatable release queue for held feedback packets.
class AckScheduler {
 public:
  AckScheduler(sim::Simulator& simulator, net::PacketHandler out)
      : sim_(simulator), out_(std::move(out)) {}

  ~AckScheduler() {
    if (timer_ != 0) sim_.cancel(timer_);
  }

  AckScheduler(const AckScheduler&) = delete;
  AckScheduler& operator=(const AckScheduler&) = delete;

  /// Hold `p` until `release` (clamped to now). Releases stay ordered as
  /// long as callers never pass a `release` before the previous one —
  /// which the order-preserving floor in the updater guarantees (and the
  /// feedback.ack_order invariant checks).
  void hold(net::Packet&& p, TimePoint release) {
    const TimePoint now = sim_.now();
    if (release < now) release = now;
    ZHUGE_INVARIANT(now, "feedback.ack_order",
                    pending_.empty() || release >= pending_.back().release,
                    "hold scheduled before the previously scheduled release");
    pending_.push_back({std::move(p), release, now});
    // Only a new front moves the timer: behind one, the armed release
    // already stands.
    if (pending_.size() == 1) arm();
  }

  /// Shift every pending release `amount` earlier (never before now).
  /// Returns how much the *latest* release actually retreated, so the
  /// caller can keep its shift accounting consistent.
  Duration retreat(Duration amount) {
    const TimePoint now = sim_.now();
    if (pending_.empty() || amount <= Duration::zero()) return Duration::zero();
    const TimePoint last_before = pending_.back().release;
    for (auto& h : pending_) {
      h.release = std::max(now, h.release - amount);
    }
    arm();
    return last_before - pending_.back().release;
  }

  /// Release every held packet immediately, in order. Returns how many
  /// packets were flushed. Used on flow teardown and fail-open.
  std::size_t flush() {
    const std::size_t n = pending_.size();
    while (!pending_.empty()) {
      release_front(sim_.now());
    }
    if (timer_ != 0) {
      sim_.cancel(timer_);
      timer_ = 0;
    }
    return n;
  }

  /// Declare the longest a packet may legally sit in this queue; releases
  /// beyond it raise the feedback.hold_bound invariant. Zero disables.
  void set_max_hold(Duration max_hold) { max_hold_ = max_hold; }

  /// Release time of the most recently scheduled packet (now if empty).
  [[nodiscard]] TimePoint last_release(TimePoint now) const {
    return pending_.empty() ? now : pending_.back().release;
  }

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

 private:
  struct Held {
    net::Packet packet;
    TimePoint release;
    TimePoint held_since;
  };

  void arm() {
    if (timer_ != 0) {
      sim_.cancel(timer_);
      timer_ = 0;
    }
    if (pending_.empty()) return;
    timer_ = sim_.schedule_at(pending_.front().release, [this] {
      timer_ = 0;
      fire();
    });
  }

  void release_front([[maybe_unused]] TimePoint now) {
    Held h = std::move(pending_.front());
    pending_.pop_front();
    ZHUGE_INVARIANT(now, "feedback.hold_bound",
                    max_hold_ <= Duration::zero() ||
                        now - h.held_since <= max_hold_,
                    "ACK held " + std::to_string((now - h.held_since).to_millis()) +
                        " ms, cap " + std::to_string(max_hold_.to_millis()) + " ms");
    out_(std::move(h.packet));
  }

  void fire() {
    const TimePoint now = sim_.now();
    while (!pending_.empty() && pending_.front().release <= now) {
      release_front(now);
    }
    arm();
  }

  sim::Simulator& sim_;
  net::PacketHandler out_;
  sim::Ring<Held> pending_;
  sim::EventId timer_ = 0;
  Duration max_hold_ = Duration::zero();
};

}  // namespace zhuge::core
