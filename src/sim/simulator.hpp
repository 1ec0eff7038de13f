#pragma once
// Discrete-event simulation engine.
//
// A Simulator owns a priority queue of timestamped event entries.
// Components schedule work with schedule_after()/schedule_at() and read the
// clock with now(). Events fire in strict (time, seq) order, where seq is a
// monotone per-event serial: equal-time events fire in scheduling order,
// which keeps runs deterministic. Because that order is total, any correct
// priority queue yields the same firing sequence — the queue's layout is a
// pure performance choice and can never move a fingerprint.
//
// Hot-path design: the engine allocates nothing per event in steady state
// and its footprint is O(pending), not O(events ever scheduled).
//
//  * Callbacks live in pooled 256-byte nodes (sim::Callback's 224-byte
//    inline buffer absorbs even Packet-owning closures). The pool is a list
//    of power-of-two chunks, so a slot is found by one shift and one mask
//    and a node never moves while the pool grows (callbacks run in place,
//    even when they schedule). Freed slots are recycled through a LIFO
//    free list, so the pool grows to the peak concurrent-pending count and
//    then stops.
//  * The queue is a 4-ary min-heap of 16-byte entries, each one unsigned
//    128-bit key (t_ns << 64 | seq << 24 | slot): one integer compare
//    orders two events, and the serial in the low word both breaks
//    same-time ties FIFO and serves as the liveness check — an entry is
//    stale iff its slot's node no longer carries the same seq. The root
//    sits at index 3, so every group of four siblings fills exactly one
//    64-byte cache line, and slots past the end hold an all-ones sentinel,
//    so a sift step reads a full group and picks its minimum with selects
//    instead of branches.
//  * Cancel just kills the node (O(1)); stale entries are discarded lazily
//    on pop and compacted wholesale when they outnumber live ones 4:1, so
//    heavy cancel/reschedule churn cannot grow the queue without bound.
//  * Node generations validate EventIds, so a fired, cancelled or
//    recycled handle is rejected without any per-event-ever state.
//
// The packed key has hard bounds — 2^24 concurrently pending events and
// 2^40 events scheduled per run, with t_ns >= 0. Crossing one would alias
// another event's order or liveness, so the engine throws instead.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace zhuge::sim {

/// Handle for a scheduled event; used to cancel timers. Id 0 is never
/// issued. Encodes (node generation << 32 | slot + 1); a stale handle —
/// fired, cancelled, or from a recycled slot — is recognized and rejected.
using EventId = std::uint64_t;

/// Deterministic discrete-event executor.
///
/// Not thread-safe by design: a simulation is a single logical timeline.
/// (Independent Simulators on separate threads are fine — see app/sweep.)
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time. Monotonically non-decreasing across callbacks.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` to run at absolute time `t` (clamped to now()).
  /// Returns an id usable with cancel(). Accepts any void() callable;
  /// captures up to Callback::kInlineSize bytes stay allocation-free,
  /// and the callable is constructed directly in its pool node — no
  /// intermediate type-erased moves on the hot path. Throws
  /// std::length_error past the serial or pending bound and
  /// std::out_of_range for a negative time (see above).
  template <typename F>
  EventId schedule_at(TimePoint t, F&& fn) {
    const std::int64_t t_ns = admit(t);
    const std::uint32_t slot = acquire_slot();
    Node& n = node(slot);
    n.fn.emplace(std::forward<F>(fn));
    return enqueue(t_ns, slot, n);
  }

  /// Schedule `fn` to run `d` after now(). Negative delays are clamped to 0.
  template <typename F>
  EventId schedule_after(Duration d, F&& fn) {
    if (d < Duration::zero()) d = Duration::zero();
    return schedule_at(now_ + d, std::forward<F>(fn));
  }

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled
  /// or unknown id is a harmless no-op. Returns true if the event was
  /// pending (i.e. this call actually cancelled it).
  bool cancel(EventId id);

  /// Run until the event queue is empty or `stop()` is called.
  void run();

  /// Run events with timestamp <= `end`, then set the clock to `end`.
  void run_until(TimePoint end);

  /// Fire the single earliest event. Returns false if the queue was empty.
  bool step() { return fire_next(kMaxKey); }

  /// Stop a run()/run_until() loop after the current callback returns.
  void stop() { stopped_ = true; }

  /// Number of events executed so far (for tests and perf reporting).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  /// Number of events ever scheduled.
  [[nodiscard]] std::uint64_t events_scheduled() const { return scheduled_; }
  /// Number of events successfully cancelled.
  [[nodiscard]] std::uint64_t events_cancelled() const { return cancelled_count_; }

  /// Number of events currently pending. Exact: cancelled events are
  /// excluded even while their heap entries await lazy discard.
  [[nodiscard]] std::size_t pending() const { return pending_count_; }

  /// Footprint introspection for the bounded-memory regression tests:
  /// node-pool size (== peak concurrent pending, never events-ever) and
  /// heap length including not-yet-discarded stale entries (compaction
  /// keeps this within 4x pending + a small floor).
  [[nodiscard]] std::size_t pool_slots() const { return pool_size_; }
  [[nodiscard]] std::size_t queue_size() const { return size_; }

  /// Test hook: overwrite a *free* slot's generation counter so the
  /// EventId generation-wraparound path can be exercised without 2^32
  /// real schedule/release cycles. Not for production use.
  void set_slot_generation_for_test(std::uint32_t slot, std::uint32_t gen) {
    node(slot).generation = gen;
  }

  /// Test hook: jump the event serial so the 2^40 bound can be reached
  /// without 2^40 real schedules. Only ever move it forward. Not for
  /// production use.
  void set_next_serial_for_test(std::uint64_t serial) { next_seq_ = serial; }

  /// Largest serial an event may carry (the 40-bit field of the key).
  static constexpr std::uint64_t kMaxSerial = (1ull << 40) - 1;

 private:
  /// Heap entry: (t_ns << 64) | (seq << kSlotBits) | slot. 16 bytes, four
  /// per cache line; sift operations touch no callback.
  using Key = unsigned __int128;
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  /// Most events that may be pending at once (the slot field's range).
  static constexpr std::uint32_t kMaxPending = 1u << kSlotBits;
  /// Greater than every real key (real keys have t_ns >= 0, so their top
  /// bit is clear): pads the last sibling group and is the no-limit bound
  /// of step() and run().
  static constexpr Key kMaxKey = ~Key{0};
  /// Physical index of the root. Children of physical p are
  /// 4p-8 .. 4p-5, so every sibling group starts on a multiple of 4.
  static constexpr std::size_t kRoot = 3;

  /// Pooled event node, exactly 256 bytes. `seq == 0` marks the slot dead
  /// (free, fired, or cancelled); `generation` increments on each reuse so
  /// stale EventIds referencing the slot are rejected.
  struct Node {
    Callback fn;                 // 240
    std::uint64_t seq = 0;       // 8: live serial, 0 = dead
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNilSlot;
  };
  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
  static constexpr unsigned kChunkBits = 6;  // 64 nodes = 16 KiB per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

  /// 64-byte-aligned storage, so the sibling groups line up with lines.
  template <typename T>
  struct LineAllocator {
    using value_type = T;
    LineAllocator() = default;
    template <typename U>
    explicit LineAllocator(const LineAllocator<U>&) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
    }
    void deallocate(T* p, std::size_t) { ::operator delete(p, std::align_val_t{64}); }
    friend bool operator==(const LineAllocator&, const LineAllocator&) { return true; }
  };

  static constexpr EventId make_id(std::uint32_t generation, std::uint32_t slot) {
    return (static_cast<EventId>(generation) << 32) | (slot + 1);
  }

  [[nodiscard]] Node& node(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & kChunkMask];
  }

  /// Clamp `t` to now() and check the key's bounds; returns t in ns.
  /// t_ns >= 0 holds while the clock starts at zero, but a negative time
  /// would set the key's top bit and silently order after every other
  /// event, so it is checked with the serial in one predicted branch.
  std::int64_t admit(TimePoint t) {
    const std::int64_t t_ns = (t < now_ ? now_ : t).count_ns();
    if (t_ns < 0 || next_seq_ > kMaxSerial) [[unlikely]] fail_admit(t_ns);
    return t_ns;
  }
  [[noreturn]] void fail_admit(std::int64_t t_ns) const;

  std::uint32_t acquire_slot();
  EventId enqueue(std::int64_t t_ns, std::uint32_t slot, Node& n);
  void release_slot(std::uint32_t slot);
  /// Pop and fire the earliest live event if its key is <= `limit`,
  /// discarding stale entries on the way. The one fire path: step(),
  /// run() and run_until() all go through it.
  bool fire_next(Key limit);
  void heap_push(Key k);
  static std::size_t min_of_4(const Key* g, Key& m);
  void pop_root();
  void sift_down(std::size_t p, Key k);
  void maybe_compact();

  [[nodiscard]] bool live(Key k) {
    const auto seqslot = static_cast<std::uint64_t>(k);
    return node(static_cast<std::uint32_t>(seqslot & kSlotMask)).seq ==
           (seqslot >> kSlotBits);
  }

  TimePoint now_;
  std::uint64_t next_seq_ = 1;  // 0 reserved as the dead marker
  std::uint64_t scheduled_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_count_ = 0;
  std::size_t pending_count_ = 0;
  bool stopped_ = false;
  std::size_t size_ = 0;  // heap entries, live and stale
  /// The heap: [0, kRoot) unused, entries at [kRoot, kRoot + size_),
  /// sentinels after them; the length is always a multiple of 4.
  std::vector<Key, LineAllocator<Key>> heap_;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t pool_size_ = 0;  // slots ever handed out
  std::uint32_t free_head_ = kNilSlot;
};

}  // namespace zhuge::sim
