#pragma once
// Open-addressing hash table for per-packet demultiplexing: the AP's
// station-by-IP and per-flow optimiser lookups and the scenario harness's
// flow table all resolve a key on every packet.
//
// An ordered std::map costs a pointer-chasing O(log n) walk of full 5-tuple
// compares per lookup. This table keeps its entries in one power-of-two
// array at a load factor of at most 1/2, probes linearly from a Fibonacci
// hash of the key, and erases by backward shift (no tombstones), so a
// lookup is one hash plus a few adjacent compares, and the table allocates
// only when it doubles.
//
// It has no iteration API on purpose. Where entries are visited in turn,
// the visit order is part of the simulated outcome, and a hash order would
// make it depend on the hash function; every such walk goes through an
// ordered container that names the keys (see app/access_point.hpp).
//
// Not thread-safe, like everything else in sim/.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace zhuge::sim {

/// Key -> value lookup. K and V must be default-constructible and movable;
/// Hash maps a K to a std::size_t (equal keys, equal hashes).
template <typename K, typename V, typename Hash = std::hash<K>>
class LookupTable {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// The value stored under `key`, or nullptr. Valid until the next
  /// insert or erase.
  [[nodiscard]] V* find(const K& key) {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const V* find(const K& key) const {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] bool contains(const K& key) const { return find(key) != nullptr; }

  /// Store `value` under `key`, replacing any value already there.
  V& insert_or_assign(const K& key, V value) {
    if (V* v = find(key)) {
      *v = std::move(value);
      return *v;
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    while (slots_[i].used) i = (i + 1) & mask_;
    Slot& s = slots_[i];
    s.key = key;
    s.value = std::move(value);
    s.used = true;
    ++size_;
    return s.value;
  }

  /// Remove `key` (destroying its value). Returns whether it was present.
  bool erase(const K& key) {
    std::size_t hole = locate(key);
    if (hole == kAbsent) return false;
    // Backward shift: pull each later entry of the probe run into the hole
    // unless its home lies cyclically after the hole, where a lookup would
    // no longer pass the hole to reach it.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].used; j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole].key = slots_[j].key;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].used = false;
    slots_[hole].value = V{};
    --size_;
    return true;
  }

  /// Remove every entry; the capacity stays.
  void clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

 private:
  struct Slot {
    K key{};
    V value{};
    bool used = false;
  };
  static constexpr std::size_t kMinCapacity = 8;
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// Fibonacci hashing: the top bits of hash * 2^64/phi, so that a weak
  /// Hash (identity on a sequential IP range) still spreads evenly.
  [[nodiscard]] std::size_t home(const K& key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(Hash{}(key)) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// The slot holding `key`, or kAbsent.
  [[nodiscard]] std::size_t locate(const K& key) const {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (!slots_[i].used) return kAbsent;
      if (slots_[i].key == key) return i;
    }
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? kMinCapacity : 2 * old.size();
    slots_ = std::vector<Slot>(cap);
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = home(s.key);
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;  ///< a power of two long, or empty
  std::size_t mask_ = 0;
  unsigned shift_ = 64;      ///< 64 - log2(capacity)
  std::size_t size_ = 0;
};

}  // namespace zhuge::sim
