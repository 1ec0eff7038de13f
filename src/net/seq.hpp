#pragma once
// 16-bit sequence-number unwrapping (RTP seq and TWCC seq wrap every 65536
// packets — a few minutes of video). The unwrapper maps the wire's uint16
// stream onto a monotonic int64 timeline, tolerating moderate reordering.
// SeqWindow then stores per-sequence state flat, indexed by that timeline.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace zhuge::net {

/// Stateful uint16 -> int64 unwrapper.
class SeqUnwrapper {
 public:
  /// Unwrap the next observed value. Values within +-32768 of the previous
  /// observation are interpreted as the nearest representative.
  ///
  /// Tie-break, pinned: at a distance of exactly 0x8000 the two
  /// interpretations are equidistant (fwd == bwd == 0x8000) and the
  /// *forward* one wins — `fwd <= 0x8000` below, not `<`. Forward is the
  /// right default for TWCC/RTP feedback: sequence numbers advance, so a
  /// half-range jump is overwhelmingly a burst of losses ahead of us, not
  /// a 32768-packet reordering. Changing this to backward would silently
  /// shift every post-gap unwrapped value by 65536; net_test pins it.
  [[nodiscard]] std::int64_t unwrap(std::uint16_t seq) {
    if (!started_) {
      started_ = true;
      last_ = seq;
      return last_;
    }
    const auto last_wire = static_cast<std::uint16_t>(last_ & 0xFFFF);
    const auto fwd = static_cast<std::uint16_t>(seq - last_wire);
    const auto bwd = static_cast<std::uint16_t>(last_wire - seq);
    if (fwd <= 0x8000) {
      last_ += fwd;
    } else {
      last_ -= bwd;
    }
    return last_;
  }

  [[nodiscard]] bool started() const { return started_; }

 private:
  bool started_ = false;
  std::int64_t last_ = 0;
};

/// Per-sequence state for the contiguous key range [begin_seq(), end_seq())
/// of an unwrapped sequence timeline, stored flat in a power-of-two ring
/// (slot = seq & mask). It stands in for an ordered map wherever the keys
/// are dense and arrive in order — send histories, frame reassembly, loss
/// tracking — so appending a key, dropping the oldest ones and looking one
/// up are each O(1), with no per-entry allocation and no pointer chasing.
/// The ring doubles when the range outgrows it and never shrinks: a steady
/// stream runs allocation-free once it has reached its peak range.
///
/// A dropped slot keeps its value until a later key lands on it, and
/// push_back() returns that stale value for the caller to overwrite, so
/// heap capacity a value owns (a bitmap, say) is recycled, not freed.
template <typename T>
class SeqWindow {
 public:
  explicit SeqWindow(std::int64_t begin = 0) : begin_(begin), end_(begin) {}

  [[nodiscard]] std::int64_t begin_seq() const { return begin_; }
  [[nodiscard]] std::int64_t end_seq() const { return end_; }
  [[nodiscard]] bool empty() const { return begin_ == end_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(end_ - begin_);
  }
  [[nodiscard]] bool contains(std::int64_t seq) const {
    return seq >= begin_ && seq < end_;
  }

  /// The value stored for `seq`, which must be in range (contains(seq)).
  [[nodiscard]] T& operator[](std::int64_t seq) { return slots_[slot(seq)]; }
  [[nodiscard]] const T& operator[](std::int64_t seq) const {
    return slots_[slot(seq)];
  }

  /// Appends key end_seq() and returns its slot, which still holds the
  /// value of whichever dropped key used it last (T{} on first use).
  T& push_back() {
    if (size() == slots_.size()) grow();
    return slots_[slot(end_++)];
  }

  /// Drops every key below `seq`; every key when seq >= end_seq().
  void drop_before(std::int64_t seq) { begin_ = std::clamp(seq, begin_, end_); }

 private:
  [[nodiscard]] std::size_t slot(std::int64_t seq) const {
    return static_cast<std::size_t>(seq) & mask_;
  }

  void grow() {
    const std::size_t cap = slots_.empty() ? 16 : 2 * slots_.size();
    std::vector<T> bigger(cap);
    for (std::int64_t s = begin_; s < end_; ++s) {
      bigger[static_cast<std::size_t>(s) & (cap - 1)] = std::move(slots_[slot(s)]);
    }
    slots_ = std::move(bigger);
    mask_ = cap - 1;
  }

  std::vector<T> slots_;
  std::size_t mask_ = 0;  // capacity - 1 (0 while empty: never indexed)
  std::int64_t begin_;
  std::int64_t end_;
};

}  // namespace zhuge::net
