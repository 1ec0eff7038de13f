#pragma once
// CoDel AQM (Nichols & Jacobson, RFC 8289). Head-drop, sojourn-time based:
// when packets have waited above `target` for longer than `interval`, drop
// from the head at an increasing rate (interval / sqrt(count)).

#include <cmath>
#include <cstdint>

#include "queue/qdisc.hpp"
#include "sim/ring.hpp"

namespace zhuge::queue {

/// Shared CoDel control-law state, reused per-flow by FqCoDel.
struct CoDelState {
  bool dropping = false;
  std::uint32_t count = 0;        ///< drops since entering dropping state
  std::uint32_t last_count = 0;
  TimePoint first_above_time{};   ///< when sojourn first exceeded target
  bool has_first_above = false;
  TimePoint drop_next{};          ///< next scheduled drop while dropping
};

/// Parameters from RFC 8289 defaults.
struct CoDelConfig {
  Duration target = Duration::millis(5);
  Duration interval = Duration::millis(100);
  std::int64_t limit_bytes = 5'000'000;  ///< hard tail-drop backstop
  std::uint32_t mtu = 1514;
};

namespace detail {

/// control_law: next drop time shortens with sqrt(count).
inline TimePoint codel_control_law(TimePoint t, Duration interval, std::uint32_t count) {
  const double scaled = interval.to_seconds() / std::sqrt(static_cast<double>(count == 0 ? 1 : count));
  return t + Duration::from_seconds(scaled);
}

}  // namespace detail

/// Standalone CoDel qdisc over a single FIFO.
class CoDel : public Qdisc {
 public:
  explicit CoDel(CoDelConfig cfg = {}) : Qdisc("queue.codel"), cfg_(cfg) {}

  bool enqueue(Packet&& p, TimePoint now) override {
    if (bytes_ + p.size_bytes > cfg_.limit_bytes) {
      ++drops_;
      obs_dropped(p, now, "tail_drop");
      return false;
    }
    bytes_ += p.size_bytes;
    if (queue_.empty()) head_since_ = now;
    queue_.push_back(Entry{std::move(p), now});
    obs_enqueued(queue_.back().packet, now);
    return true;
  }

  std::optional<Packet> dequeue(TimePoint now) override {
    while (true) {
      if (queue_.empty()) {
        state_.dropping = false;
        state_.has_first_above = false;
        head_since_ = std::nullopt;
        return std::nullopt;
      }
      Entry e = std::move(queue_.front());
      queue_.pop_front();
      bytes_ -= e.packet.size_bytes;
      head_since_ = queue_.empty() ? std::optional<TimePoint>{} : now;

      const Duration sojourn = now - e.enqueue_time;
      const bool ok_to_deliver = decide(now, sojourn);
      if (ok_to_deliver) {
        obs_dequeued(e.packet, now, sojourn);
        return std::move(e.packet);
      }
      ++drops_;  // head drop; loop to examine the next packet
      obs_dropped(e.packet, now, "head_drop");
    }
  }

  [[nodiscard]] const Packet* peek() const override {
    return queue_.empty() ? nullptr : &queue_.front().packet;
  }
  [[nodiscard]] std::int64_t byte_count() const override { return bytes_; }
  [[nodiscard]] std::size_t packet_count() const override { return queue_.size(); }
  [[nodiscard]] std::optional<TimePoint> head_since() const override { return head_since_; }

 private:
  struct Entry {
    Packet packet;
    TimePoint enqueue_time;
  };

  /// RFC 8289 dequeue decision. Returns true to deliver, false to drop.
  bool decide(TimePoint now, Duration sojourn) {
    const bool below = sojourn < cfg_.target || bytes_ <= cfg_.mtu;
    if (below) {
      state_.has_first_above = false;
      state_.dropping = false;
      return true;
    }
    if (!state_.dropping) {
      if (!state_.has_first_above) {
        state_.first_above_time = now + cfg_.interval;
        state_.has_first_above = true;
        return true;
      }
      if (now < state_.first_above_time) return true;
      // Enter dropping state; drop this packet.
      state_.dropping = true;
      const std::uint32_t delta = state_.count - state_.last_count;
      state_.count = (delta > 1 && now - state_.drop_next < cfg_.interval * 16)
                         ? delta
                         : 1;
      state_.last_count = state_.count;
      state_.drop_next = detail::codel_control_law(now, cfg_.interval, state_.count);
      return false;
    }
    // In dropping state: drop whenever we pass drop_next.
    if (now >= state_.drop_next) {
      ++state_.count;
      state_.drop_next = detail::codel_control_law(state_.drop_next, cfg_.interval, state_.count);
      return false;
    }
    return true;
  }

  CoDelConfig cfg_;
  CoDelState state_;
  sim::Ring<Entry> queue_;
  std::int64_t bytes_ = 0;
  std::optional<TimePoint> head_since_;
};

}  // namespace zhuge::queue
