#pragma once
// FQ-CoDel (RFC 8290): deficit-round-robin over hashed flow sub-queues,
// each governed by CoDel. This is the Linux/systemd default qdisc the paper
// calls out: Zhuge must read per-flow queue state here, so the per-flow
// Qdisc views are overridden.

#include <cstdint>
#include <map>

#include "queue/codel.hpp"
#include "queue/qdisc.hpp"
#include "sim/ring.hpp"

namespace zhuge::queue {

/// Deficit-round-robin fair queue with per-flow CoDel.
class FqCoDel : public Qdisc {
 public:
  static constexpr std::uint32_t kQuantum = 1514;  ///< DRR quantum (bytes)

  /// `total_limit_bytes` caps the bytes queued over all flows.
  explicit FqCoDel(std::int64_t total_limit_bytes = 5'000'000)
      : Qdisc("queue.fq_codel"), total_limit_bytes_(total_limit_bytes) {}

  bool enqueue(Packet&& p, TimePoint now) override {
    if (total_bytes_ + p.size_bytes > total_limit_bytes_) {
      ++drops_;
      obs_dropped(p, now, "tail_drop");
      return false;
    }
    SubQueue& q = flow_queue(p.flow);
    total_bytes_ += p.size_bytes;
    q.bytes += p.size_bytes;
    if (q.entries.empty()) q.head_since = now;
    q.entries.push_back({std::move(p), now});
    obs_enqueued(q.entries.back().packet, now);
    if (!q.active) {
      q.active = true;
      q.deficit = kQuantum;
      new_flows_.push_back(&q);
    }
    return true;
  }

  std::optional<Packet> dequeue(TimePoint now) override {
    while (true) {
      SubQueue* q = pick_flow();
      if (q == nullptr) return std::nullopt;
      if (q->entries.empty()) {
        // Flow drained: retire it from the schedule.
        q->active = false;
        pop_current();
        continue;
      }
      if (q->deficit <= 0) {
        q->deficit += static_cast<std::int64_t>(kQuantum);
        rotate_current_to_old();
        continue;
      }
      Entry e = std::move(q->entries.front());
      q->entries.pop_front();
      q->bytes -= e.packet.size_bytes;
      total_bytes_ -= e.packet.size_bytes;
      q->head_since = q->entries.empty() ? std::optional<TimePoint>{} : now;

      const Duration sojourn = now - e.enqueue_time;
      if (!q->codel.decide(now, sojourn, q->bytes)) {
        ++drops_;
        obs_dropped(e.packet, now, "head_drop");
        continue;  // head drop inside this flow; try again
      }
      q->deficit -= static_cast<std::int64_t>(e.packet.size_bytes);
      obs_dequeued(e.packet, now, sojourn);
      return std::move(e.packet);
    }
  }

  [[nodiscard]] const Packet* peek() const override {
    const SubQueue* q = pick_flow_const();
    if (q == nullptr || q->entries.empty()) return nullptr;
    return &q->entries.front().packet;
  }

  [[nodiscard]] std::int64_t byte_count() const override { return total_bytes_; }
  [[nodiscard]] std::size_t packet_count() const override {
    std::size_t n = 0;
    for (const auto& [id, q] : queues_) n += q.entries.size();
    return n;
  }
  [[nodiscard]] std::optional<TimePoint> head_since() const override {
    const SubQueue* q = pick_flow_const();
    return q == nullptr ? std::nullopt : q->head_since;
  }

  [[nodiscard]] std::int64_t byte_count_flow(const FlowId& f) const override {
    const auto it = queues_.find(f);
    return it == queues_.end() ? 0 : it->second.bytes;
  }
  [[nodiscard]] std::optional<TimePoint> head_since_flow(const FlowId& f) const override {
    const auto it = queues_.find(f);
    return it == queues_.end() ? std::nullopt : it->second.head_since;
  }

  [[nodiscard]] std::size_t flow_count() const { return queues_.size(); }

 private:
  struct Entry {
    Packet packet;
    TimePoint enqueue_time;
  };
  struct SubQueue {
    sim::Ring<Entry> entries;
    std::int64_t bytes = 0;
    std::int64_t deficit = 0;
    bool active = false;
    std::optional<TimePoint> head_since;
    CoDelState codel;
  };

  SubQueue& flow_queue(const FlowId& f) { return queues_[f]; }

  /// Current flow to serve: new flows first, then old flows (RFC 8290).
  SubQueue* pick_flow() {
    if (!new_flows_.empty()) return new_flows_.front();
    if (!old_flows_.empty()) return old_flows_.front();
    return nullptr;
  }
  [[nodiscard]] const SubQueue* pick_flow_const() const {
    if (!new_flows_.empty()) return new_flows_.front();
    if (!old_flows_.empty()) return old_flows_.front();
    return nullptr;
  }
  void pop_current() {
    if (!new_flows_.empty()) {
      new_flows_.pop_front();
    } else if (!old_flows_.empty()) {
      old_flows_.pop_front();
    }
  }
  void rotate_current_to_old() {
    if (!new_flows_.empty()) {
      old_flows_.push_back(new_flows_.front());
      new_flows_.pop_front();
    } else if (!old_flows_.empty()) {
      old_flows_.push_back(old_flows_.front());
      old_flows_.pop_front();
    }
  }

  std::int64_t total_limit_bytes_;
  // Ordered by flow id so per-flow state walks are hash-independent (DRR
  // service order itself lives in new_flows_/old_flows_, not here).
  std::map<FlowId, SubQueue> queues_;
  sim::Ring<SubQueue*> new_flows_;
  sim::Ring<SubQueue*> old_flows_;
  std::int64_t total_bytes_ = 0;
};

}  // namespace zhuge::queue
