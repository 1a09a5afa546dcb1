// Open-addressing hash map: linear probing over a power-of-two slot array,
// backward-shift erase (no tombstones), caller-supplied 64-bit hashes.
//
// It serves the two per-message lookups of a node: the storage engine's
// key index (kv::StorageEngine's tiers) and the RPC layer's pending-call
// table. A slot holds the hash and the value only; the caller passes the
// hash and a predicate that recognises its key in a value. So the store
// index is a hash plus an entry number per key, with the key itself
// stored once, in the entry; and an operation that consults both store
// tiers hashes its key once. Probing compares cached hashes before it
// calls the predicate, and growth never rehashes a key.
//
// Values returned by find/insert are invalidated by any later insert
// (growth) or erase (backward shift moves entries).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <utility>

namespace hpres::kv {

template <typename V>
class FlatMap {
 public:
  /// Slots of a fresh table; it grows by doubling past 3/4 full.
  static constexpr std::size_t kInitialCapacity = 16;

  FlatMap() = default;
  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;
  ~FlatMap() { clear(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Slot count (0 before the first insert; for tests).
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// The value under `hash` that `match(value)` accepts, or nullptr.
  template <typename Match>
  [[nodiscard]] V* find(std::uint64_t hash, Match&& match) noexcept {
    const std::size_t i = slot_of(hash, match);
    return i == kAbsent ? nullptr : &slots_[i].value();
  }

  /// Stores V(args...) under `hash`. The caller guarantees that no stored
  /// value matches the same key.
  template <typename... Args>
  V& insert(std::uint64_t hash, Args&&... args) {
    if ((size_ + 1) * 4 > capacity() * 3) grow();
    const std::uint64_t h = stored_hash(hash);
    std::size_t i = h & mask_;
    while (slots_[i].hash != 0) i = (i + 1) & mask_;
    Slot& s = slots_[i];
    ::new (s.raw) V(std::forward<Args>(args)...);
    s.hash = h;
    ++size_;
    return s.value();
  }

  /// Removes the matching value; returns whether there was one.
  template <typename Match>
  bool erase(std::uint64_t hash, Match&& match) noexcept {
    const std::size_t i = slot_of(hash, match);
    if (i == kAbsent) return false;
    erase_slot(i);
    return true;
  }

  /// Removes the matching value and returns it (nullopt when absent).
  template <typename Match>
  std::optional<V> take(std::uint64_t hash, Match&& match) {
    const std::size_t i = slot_of(hash, match);
    if (i == kAbsent) return std::nullopt;
    std::optional<V> out{std::move(slots_[i].value())};
    erase_slot(i);
    return out;
  }

  /// Destroys every value; keeps the slot array.
  void clear() noexcept {
    for (std::size_t i = 0; size_ > 0 && i <= mask_; ++i) {
      if (slots_[i].hash != 0) {
        slots_[i].value().~V();
        slots_[i].hash = 0;
        --size_;
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;  ///< 0 marks an empty slot
    alignas(V) unsigned char raw[sizeof(V)];
    V& value() noexcept { return *std::launder(reinterpret_cast<V*>(raw)); }
  };

  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  template <typename Match>
  [[nodiscard]] std::size_t slot_of(std::uint64_t hash, Match& match) {
    if (size_ == 0) return kAbsent;
    const std::uint64_t h = stored_hash(hash);
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.hash == 0) return kAbsent;
      if (s.hash == h && match(static_cast<const V&>(s.value()))) return i;
    }
  }

  /// Hash 0 is the empty marker, so a key hashing to it is stored as 1
  /// (the predicate still decides, so this only costs a probe).
  [[nodiscard]] static std::uint64_t stored_hash(std::uint64_t h) noexcept {
    return h == 0 ? 1 : h;
  }

  /// Knuth's Algorithm R: pull every later value of the probe run whose
  /// home slot does not lie cyclically in (hole, value] back into the
  /// hole, so lookups never need tombstones.
  void erase_slot(std::size_t hole) noexcept {
    slots_[hole].value().~V();
    for (std::size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
      Slot& s = slots_[j];
      if (s.hash == 0) break;
      const std::size_t home = s.hash & mask_;
      const bool stays = hole <= j ? (hole < home && home <= j)
                                   : (hole < home || home <= j);
      if (stays) continue;
      ::new (slots_[hole].raw) V(std::move(s.value()));
      slots_[hole].hash = s.hash;
      s.value().~V();
      hole = j;
    }
    slots_[hole].hash = 0;
    --size_;
  }

  void grow() {
    const std::size_t old_cap = slots_ ? capacity() : 0;
    std::unique_ptr<Slot[]> old = std::move(slots_);
    const std::size_t cap = old_cap == 0 ? kInitialCapacity : old_cap * 2;
    slots_ = std::make_unique<Slot[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < old_cap; ++i) {
      Slot& from = old[i];
      if (from.hash == 0) continue;
      std::size_t j = from.hash & mask_;
      while (slots_[j].hash != 0) j = (j + 1) & mask_;
      ::new (slots_[j].raw) V(std::move(from.value()));
      slots_[j].hash = from.hash;
      from.value().~V();
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = static_cast<std::size_t>(-1);  ///< capacity - 1
  std::size_t size_ = 0;
};

}  // namespace hpres::kv
