#pragma once
// CoDel AQM (Nichols & Jacobson, RFC 8289). Head-drop, sojourn-time based:
// when packets have waited above `target` for longer than `interval`, drop
// from the head at an increasing rate (interval / sqrt(count)).

#include <cmath>
#include <cstdint>

#include "queue/qdisc.hpp"
#include "sim/ring.hpp"

namespace zhuge::queue {

/// The RFC 8289 control law: its per-queue state and dequeue decision,
/// shared by the standalone CoDel qdisc and every FqCoDel flow queue.
struct CoDelState {
  static constexpr Duration kTarget = Duration::millis(5);
  static constexpr Duration kInterval = Duration::millis(100);
  static constexpr std::uint32_t kMtu = 1514;

  bool dropping = false;
  std::uint32_t count = 0;        ///< drops since entering dropping state
  std::uint32_t last_count = 0;
  TimePoint first_above_time{};   ///< when sojourn first exceeded target
  bool has_first_above = false;
  TimePoint drop_next{};          ///< next scheduled drop while dropping

  /// Decide the fate of a head packet that waited `sojourn`, with
  /// `queue_bytes` still queued behind it. Returns true to deliver, false
  /// to drop.
  bool decide(TimePoint now, Duration sojourn, std::int64_t queue_bytes) {
    const bool below = sojourn < kTarget || queue_bytes <= kMtu;
    if (below) {
      has_first_above = false;
      dropping = false;
      return true;
    }
    if (!dropping) {
      if (!has_first_above) {
        first_above_time = now + kInterval;
        has_first_above = true;
        return true;
      }
      if (now < first_above_time) return true;
      // Enter dropping state; drop this packet.
      dropping = true;
      const std::uint32_t delta = count - last_count;
      count = (delta > 1 && now - drop_next < kInterval * 16) ? delta : 1;
      last_count = count;
      drop_next = control_law(now, count);
      return false;
    }
    // In dropping state: drop whenever we pass drop_next.
    if (now >= drop_next) {
      ++count;
      drop_next = control_law(drop_next, count);
      return false;
    }
    return true;
  }

  /// The next drop time shortens with sqrt(count).
  static TimePoint control_law(TimePoint t, std::uint32_t count) {
    const double scaled =
        kInterval.to_seconds() / std::sqrt(static_cast<double>(count == 0 ? 1 : count));
    return t + Duration::from_seconds(scaled);
  }
};

/// Standalone CoDel qdisc over a single FIFO.
class CoDel : public Qdisc {
 public:
  /// `limit_bytes` is the hard tail-drop backstop.
  explicit CoDel(std::int64_t limit_bytes = 5'000'000)
      : Qdisc("queue.codel"), limit_bytes_(limit_bytes) {}

  bool enqueue(Packet&& p, TimePoint now) override {
    if (bytes_ + p.size_bytes > limit_bytes_) {
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
      if (state_.decide(now, sojourn, bytes_)) {
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

  std::int64_t limit_bytes_;
  CoDelState state_;
  sim::Ring<Entry> queue_;
  std::int64_t bytes_ = 0;
  std::optional<TimePoint> head_since_;
};

}  // namespace zhuge::queue
