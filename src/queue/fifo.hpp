#pragma once
// Drop-tail FIFO — the paper's baseline queue discipline.

#include <deque>

#include "queue/qdisc.hpp"

namespace zhuge::queue {

/// Byte-bounded drop-tail FIFO.
class DropTailFifo : public Qdisc {
 public:
  /// `limit_bytes` < 0 means unbounded (useful in unit tests).
  explicit DropTailFifo(std::int64_t limit_bytes)
      : Qdisc("queue.fifo"), limit_bytes_(limit_bytes) {}

  bool enqueue(Packet&& p, TimePoint now) override {
    if (limit_bytes_ >= 0 && bytes_ + p.size_bytes > limit_bytes_) {
      ++drops_;
      obs_dropped(p, now, "tail_drop");
      return false;
    }
    bytes_ += p.size_bytes;
    if (queue_.empty()) head_since_ = now;
    enqueue_times_.push_back(now);
    queue_.push_back(std::move(p));
    obs_enqueued(queue_.back(), now);
    return true;
  }

  std::optional<Packet> dequeue(TimePoint now) override {
    if (queue_.empty()) return std::nullopt;
    Packet p = std::move(queue_.front());
    queue_.pop_front();
    const TimePoint enq = enqueue_times_.front();
    enqueue_times_.pop_front();
    bytes_ -= p.size_bytes;
    head_since_ = queue_.empty() ? std::optional<TimePoint>{} : now;
    obs_dequeued(p, now, now - enq);
    return p;
  }

  [[nodiscard]] const Packet* peek() const override {
    return queue_.empty() ? nullptr : &queue_.front();
  }
  [[nodiscard]] std::int64_t byte_count() const override { return bytes_; }
  [[nodiscard]] std::size_t packet_count() const override { return queue_.size(); }
  [[nodiscard]] std::optional<TimePoint> head_since() const override { return head_since_; }

 private:
  std::int64_t limit_bytes_;
  std::int64_t bytes_ = 0;
  std::deque<Packet> queue_;
  std::deque<TimePoint> enqueue_times_;  ///< parallel to queue_, for sojourn
  std::optional<TimePoint> head_since_;
};

}  // namespace zhuge::queue
