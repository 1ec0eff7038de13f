#pragma once
// Generic object pool with stable addresses and index handles.
//
// The event engine's per-event cost is dominated by how many bytes ride
// through the heap and the callback nodes. Components that park a payload
// (an in-flight Packet, a paced frame) across one or more timer hops used
// to move the whole object into each closure — a ~200-byte memcpy per hop
// for packets. A Pool lets them park the payload once and thread a 4-byte
// index through the closures instead: the event nodes stay tiny, the
// payload is touched exactly twice (move in, move out), and freed slots
// recycle their heap capacity (a Packet slot that once held a TWCC vector
// keeps that vector's buffer for the next tenant).
//
// Same recycling idiom as the Simulator's callback-node pool: address-stable
// storage (here a deque) with a LIFO free list, so the pool grows to the
// peak concurrent-resident count and then stops allocating. A resident
// object may be handed off in place (`std::move(pool.at(i))`, then
// release(i)) when the consumer decides whether to keep it.
//
// Not thread-safe, like everything else in sim/: one pool per logical
// timeline.

#include <cstdint>
#include <deque>
#include <utility>

namespace zhuge::sim {

template <typename T>
class Pool {
 public:
  using Index = std::uint32_t;

  /// Move `v` into a free slot and return its handle.
  Index put(T&& v) {
    const Index idx = acquire();
    slots_[idx].value = std::move(v);
    return idx;
  }

  /// Access a resident object. The reference is stable until release().
  [[nodiscard]] T& at(Index idx) { return slots_[idx].value; }
  [[nodiscard]] const T& at(Index idx) const { return slots_[idx].value; }

  /// Move the object out and free the slot. The slot keeps the moved-from
  /// shell (and any heap capacity it still owns) for reuse.
  [[nodiscard]] T take(Index idx) {
    T out = std::move(slots_[idx].value);
    release(idx);
    return out;
  }

  /// Free a slot without taking the value (e.g. a dropped packet).
  void release(Index idx) {
    slots_[idx].next_free = free_head_;
    free_head_ = idx;
    ++free_count_;
  }

  /// Slots ever allocated == peak concurrent residency (footprint tests).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Objects currently resident.
  [[nodiscard]] std::size_t in_use() const { return slots_.size() - free_count_; }

 private:
  static constexpr Index kNil = 0xFFFFFFFFu;

  struct Slot {
    T value{};
    Index next_free = kNil;
  };

  Index acquire() {
    if (free_head_ != kNil) {
      const Index idx = free_head_;
      free_head_ = slots_[idx].next_free;
      --free_count_;
      return idx;
    }
    slots_.emplace_back();
    return static_cast<Index>(slots_.size() - 1);
  }

  std::deque<Slot> slots_;  // deque: addresses stable while the pool grows
  Index free_head_ = kNil;
  std::size_t free_count_ = 0;
};

}  // namespace zhuge::sim
