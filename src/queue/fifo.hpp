#pragma once
// Drop-tail FIFO — the paper's baseline queue discipline.

#include "queue/qdisc.hpp"
#include "sim/ring.hpp"

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
    queue_.push_back(Entry{std::move(p), now});
    obs_enqueued(queue_.back().packet, now);
    return true;
  }

  std::optional<Packet> dequeue(TimePoint now) override {
    if (queue_.empty()) return std::nullopt;
    Entry e = std::move(queue_.front());
    queue_.pop_front();
    bytes_ -= e.packet.size_bytes;
    head_since_ = queue_.empty() ? std::optional<TimePoint>{} : now;
    obs_dequeued(e.packet, now, now - e.enqueue_time);
    return std::move(e.packet);
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
    TimePoint enqueue_time;  ///< for the sojourn at dequeue
  };

  std::int64_t limit_bytes_;
  std::int64_t bytes_ = 0;
  sim::Ring<Entry> queue_;
  std::optional<TimePoint> head_since_;
};

}  // namespace zhuge::queue
