#pragma once
// Growable FIFO ring buffer: the one container behind every per-packet
// queue on the packet path (qdiscs, the WiFi retry queue, the medium's
// waiters, the WAN link's buffer, the TCP sender's backlog and in-flight
// table, the out-of-band ACK scheduler).
//
// std::deque allocates a fresh 512-byte node every 512 bytes of pushes and
// frees it once the front drains past it, so a FIFO of 200-byte Packets
// calls malloc/free on every second enqueue however steady its depth. A
// Ring keeps its elements in one power-of-two array (slot = index & mask):
// it doubles when full, unwrapping into the new array, and never shrinks,
// so a queue runs allocation-free once it has reached its peak depth. Like
// net::SeqWindow, it trades that peak's footprint for the steady state's
// allocator traffic.
//
// Unlike SeqWindow, slots hold live objects only: push_back/emplace_back
// construct in place and pop_front/clear destroy, so element types may be
// move-only and a popped packet's payload is released at once.
//
// Not thread-safe, like everything else in sim/.

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace zhuge::sim {

template <typename T>
class Ring {
 public:
  Ring() = default;
  ~Ring() {
    clear();
    if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, cap_);
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated: the peak depth rounded up to a power of two.
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  /// `args` may refer to an element of this ring (push_back(r.front())).
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    T* slot = nullptr;
    if (size_ == cap_) {
      // Build the new element before the old ones move out from under args.
      const std::size_t cap = cap_ == 0 ? kMinCapacity : 2 * cap_;
      T* bigger = std::allocator<T>{}.allocate(cap);
      slot = std::construct_at(bigger + size_, std::forward<Args>(args)...);
      for (std::size_t i = 0; i < size_; ++i) {
        T& old = (*this)[i];
        std::construct_at(bigger + i, std::move(old));
        std::destroy_at(&old);
      }
      if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, cap_);
      data_ = bigger;
      cap_ = cap;
      head_ = 0;
    } else {
      slot = std::construct_at(data_ + ((head_ + size_) & (cap_ - 1)),
                               std::forward<Args>(args)...);
    }
    ++size_;
    return *slot;
  }

  /// Destroys the oldest element; the ring must not be empty.
  void pop_front() {
    std::destroy_at(data_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  [[nodiscard]] T& front() { return data_[head_]; }
  [[nodiscard]] const T& front() const { return data_[head_]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  /// FIFO order: i = 0 is the oldest element.
  [[nodiscard]] T& operator[](std::size_t i) { return data_[(head_ + i) & (cap_ - 1)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return data_[(head_ + i) & (cap_ - 1)];
  }

  /// Destroys every element; the capacity stays.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  /// Walks FIFO order (range-for).
  template <bool Const>
  class Iter {
   public:
    using RingPtr = std::conditional_t<Const, const Ring*, Ring*>;

    Iter(RingPtr ring, std::size_t i) : ring_(ring), i_(i) {}
    decltype(auto) operator*() const { return (*ring_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }

   private:
    RingPtr ring_;
    std::size_t i_;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  [[nodiscard]] iterator begin() { return {this, 0}; }
  [[nodiscard]] iterator end() { return {this, size_}; }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

 private:
  static constexpr std::size_t kMinCapacity = 4;

  T* data_ = nullptr;
  std::size_t cap_ = 0;   // a power of two, or 0 before the first push
  std::size_t head_ = 0;  // slot of the oldest element
  std::size_t size_ = 0;
};

}  // namespace zhuge::sim
