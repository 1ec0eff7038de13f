#include "sim/simulator.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace zhuge::sim {

void Simulator::fail_admit(std::int64_t t_ns) const {
  if (t_ns < 0) {
    throw std::out_of_range("Simulator: event time " + std::to_string(t_ns) +
                            " ns is negative (TimePoint overflow?)");
  }
  throw std::length_error("Simulator: event serial " + std::to_string(next_seq_) +
                          " exceeds the 40-bit bound of one run");
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = node(slot).next_free;
    return slot;
  }
  if (pool_size_ >= kMaxPending) {
    throw std::length_error("Simulator: more than 2^24 events pending at once");
  }
  if ((pool_size_ & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<Node[]>(std::size_t{kChunkMask} + 1));
  }
  return pool_size_++;
}

void Simulator::release_slot(std::uint32_t slot) {
  Node& n = node(slot);
  ++n.generation;  // invalidate any EventId still pointing at this slot
  if (n.generation == 0) {
    // Generation wrapped: every id this slot ever issued is about to
    // become mintable again, so an id held since generation g would
    // validate against an unrelated future event once the counter walks
    // back around to g. Retire the slot instead of recycling it — one
    // 256-byte node leaked per 2^32 reuses of a single slot, in exchange
    // for cancel() never accepting a stale handle.
    return;
  }
  n.next_free = free_head_;
  free_head_ = slot;
}

// ---- 4-ary heap ------------------------------------------------------------
// Physical layout: the root at kRoot = 3, children of p at 4p-8 .. 4p-5,
// parent of c at c/4 + 2. Every sibling group is one aligned 64-byte line,
// and every slot of the last group past the end holds kMaxKey, so a sift
// step always reads four keys. A freshly pushed event usually has a
// *later* time than most of the heap (timers re-arm into the future), so
// sift-up almost always stops after one compare; pop pays the full descent,
// which the 4-way fan-out halves relative to a binary heap.

void Simulator::heap_push(Key k) {
  std::size_t c = kRoot + size_;
  if (c >= heap_.size()) heap_.resize((c & ~std::size_t{3}) + 4, kMaxKey);
  ++size_;
  Key* const h = heap_.data();
  while (c > kRoot) {
    const std::size_t parent = (c >> 2) + 2;
    if (!(k < h[parent])) break;
    h[c] = h[parent];
    c = parent;
  }
  h[c] = k;
}

// Index (0..3) and value of the smallest of g[0..3], without branches: the
// pair-wise winners, then the final, each picked with masks. Written with
// ?: the compiler emits jumps, which mispredict about half the time on heap
// keys; picking only the index and reloading the value serialises each
// level on a dependent load.
std::size_t Simulator::min_of_4(const Key* g, Key& m) {
  const auto lo = [](Key k) { return static_cast<std::uint64_t>(k); };
  const auto hi = [](Key k) { return static_cast<std::uint64_t>(k >> 64); };
  const Key a = g[0], b = g[1], c = g[2], d = g[3];
  const std::uint64_t take_b = -static_cast<std::uint64_t>(b < a);
  const std::uint64_t take_d = -static_cast<std::uint64_t>(d < c);
  const Key m1 = (Key{hi(a) ^ ((hi(a) ^ hi(b)) & take_b)} << 64) |
                 (lo(a) ^ ((lo(a) ^ lo(b)) & take_b));
  const Key m2 = (Key{hi(c) ^ ((hi(c) ^ hi(d)) & take_d)} << 64) |
                 (lo(c) ^ ((lo(c) ^ lo(d)) & take_d));
  const std::uint64_t take_2 = -static_cast<std::uint64_t>(m2 < m1);
  m = m1 ^ ((m1 ^ m2) & ((Key{take_2} << 64) | take_2));
  const std::size_t i1 = take_b & 1;
  const std::size_t i2 = 2 + (take_d & 1);
  return i1 ^ ((i1 ^ i2) & take_2);
}

void Simulator::sift_down(std::size_t p, Key k) {
  Key* const h = heap_.data();
  const std::size_t end = kRoot + size_;
  for (;;) {
    const std::size_t first = 4 * p - 8;
    if (first >= end) break;
    Key m;
    const std::size_t i = min_of_4(h + first, m);
    if (!(m < k)) break;
    h[p] = m;
    p = first + i;
  }
  h[p] = k;
}

void Simulator::pop_root() {
  --size_;
  const std::size_t last = kRoot + size_;
  const Key k = heap_[last];
  heap_[last] = kMaxKey;
  if (size_ != 0) sift_down(kRoot, k);
}

// ---- scheduling ------------------------------------------------------------

EventId Simulator::enqueue(std::int64_t t_ns, std::uint32_t slot, Node& n) {
  n.seq = next_seq_++;
  ++scheduled_;
  ++pending_count_;
  heap_push((Key{static_cast<std::uint64_t>(t_ns)} << 64) | (n.seq << kSlotBits) |
            slot);
  return make_id(n.generation, slot);
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t low = static_cast<std::uint32_t>(id);
  if (low == 0) return false;
  const std::uint32_t slot = low - 1;
  if (slot >= pool_size_) return false;
  Node& n = node(slot);
  if (n.seq == 0 || n.generation != static_cast<std::uint32_t>(id >> 32)) {
    return false;  // already fired, already cancelled, or recycled slot
  }
  n.seq = 0;       // the heap entry is now stale; discarded lazily on pop
  n.fn.reset();    // drop the payload (e.g. a held Packet) eagerly
  release_slot(slot);
  ++cancelled_count_;
  --pending_count_;
  maybe_compact();
  return true;
}

void Simulator::maybe_compact() {
  // Cancel-heavy churn (timers re-armed earlier, e.g. an AckScheduler
  // retreat) leaves stale entries behind. Sweep them out when they outnumber live ones
  // 4:1 so the heap stays O(pending) even over billion-event runs; the
  // floor of 64 keeps tiny queues from compacting constantly.
  if (size_ <= 64 || size_ <= 4 * pending_count_) return;
  const std::size_t end = kRoot + size_;
  std::size_t out = kRoot;
  for (std::size_t i = kRoot; i < end; ++i) {
    if (live(heap_[i])) heap_[out++] = heap_[i];
  }
  for (std::size_t i = out; i < end; ++i) heap_[i] = kMaxKey;
  size_ = out - kRoot;
  // Bottom-up rebuild: sift every internal node, last parent first.
  if (size_ < 2) return;
  for (std::size_t p = ((out - 1) >> 2) + 2; p >= kRoot; --p) sift_down(p, heap_[p]);
}

// ---- firing ----------------------------------------------------------------

bool Simulator::fire_next(Key limit) {
  while (size_ != 0) {
    const Key top = heap_[kRoot];
    const auto seqslot = static_cast<std::uint64_t>(top);
    const auto slot = static_cast<std::uint32_t>(seqslot & kSlotMask);
    Node& n = node(slot);
    if (n.seq != (seqslot >> kSlotBits)) {  // cancelled; stale
      pop_root();
      continue;
    }
    if (top > limit) return false;
    pop_root();
    n.seq = 0;
    --pending_count_;
    now_ = TimePoint{static_cast<std::int64_t>(top >> 64)};
    ++executed_;
    // Run the callback in place: pool chunks never move, so nested
    // schedule_at() growing the pool cannot move this node, and the slot
    // is only released (and thus reusable) after the callback returns.
    // operator() consumes the callable (invoke + destroy, one dispatch).
    n.fn();
    release_slot(slot);
    return true;
  }
  return false;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && fire_next(kMaxKey)) {
  }
}

void Simulator::run_until(TimePoint end) {
  stopped_ = false;
  // Every key at time `end` is <= (end << 64 | all-ones): fire up to there.
  const Key limit = end.count_ns() < 0
                        ? Key{0}
                        : (Key{static_cast<std::uint64_t>(end.count_ns())} << 64) |
                              ~std::uint64_t{0};
  while (!stopped_ && fire_next(limit)) {
  }
  if (now_ < end) now_ = end;
}

}  // namespace zhuge::sim
