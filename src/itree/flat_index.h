// Flat open-addressing index for the summarization builders (IntervalTree
// and StreamingSetBuilder): a key -> uint32_t map with exactly the
// operations their AddAccess/AddRun branches need.
//
// Layout: one power-of-two array of (key, value) slots, linear probing from
// the key's hash. A slot whose value is kNil is empty, so no separate
// occupancy bit or tombstone exists; values must therefore never be kNil
// (node ids and per-key node counts never are). Erase uses backward-shift
// deletion: later members of the probe chain move up into the hole, so the
// continuation branch - which erases and re-inserts on every access - never
// accumulates tombstones and never needs a cleanup rehash. The array doubles
// when an insert would take the load above one half, so probe chains stay
// short; every other operation is allocation-free.
//
// Lookups, emplace-style inserts and erases by key behave exactly as on
// std::unordered_map, so the builders' results are those of a map; the
// index has no iteration, the one thing whose order would differ.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sword::itree {

template <typename Key, typename Hash>
class FlatIndex {
 public:
  static constexpr uint32_t kNil = 0xffffffffu;

  /// The value mapped to `key`, or kNil when absent.
  uint32_t Find(const Key& key) const {
    const size_t i = SlotOf(key);
    return i == kAbsent ? kNil : slots_[i].value;
  }

  /// The value mapped to `key`, or 0 when absent (a per-key counter read).
  uint32_t GetOrZero(const Key& key) const {
    const uint32_t v = Find(key);
    return v == kNil ? 0 : v;
  }

  /// Maps `key` to `value` unless `key` is already mapped (the mapped value
  /// is then left alone, like std::unordered_map::emplace). Returns the
  /// mapped value, valid until the next insert. `value` must not be kNil.
  uint32_t& InsertIfAbsent(const Key& key, uint32_t value) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.value == kNil) {
        s.key = key;
        s.value = value;
        size_++;
        return s.value;
      }
      if (s.key == key) return s.value;
    }
  }

  /// Removes `key` if present. Returns the value it mapped to, or kNil, so
  /// a lookup that is always followed by removal costs one probe.
  uint32_t Erase(const Key& key) {
    const size_t i = SlotOf(key);
    if (i == kAbsent) return kNil;
    const uint32_t value = slots_[i].value;
    EraseSlot(i);
    return value;
  }

  /// Removes `key` only when it currently maps to `value`: the builders
  /// insert best-effort, so an entry may belong to another node.
  void EraseIfMapsTo(const Key& key, uint32_t value) {
    if (const size_t i = SlotOf(key); i != kAbsent && slots_[i].value == value) {
      EraseSlot(i);
    }
  }

  /// Removes every entry and releases the slot array.
  void Clear() {
    std::vector<Slot>().swap(slots_);
    size_ = 0;
    mask_ = 0;
  }

  size_t size() const { return size_; }

  /// Heap bytes of the slot array at its real capacity.
  uint64_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  static constexpr size_t kMinSlots = 8;
  static constexpr size_t kAbsent = ~size_t{0};

  struct Slot {
    Key key{};
    uint32_t value = kNil;
  };

  size_t Home(const Key& key) const { return Hash{}(key) & mask_; }

  size_t SlotOf(const Key& key) const {
    if (size_ == 0) return kAbsent;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i].value == kNil) return kAbsent;
      if (slots_[i].key == key) return i;
    }
  }

  /// Backward-shift deletion: walk the chain after the hole and move up
  /// every entry whose probe path runs through the hole (its home lies
  /// cyclically at or before the hole), until an empty slot ends the chain.
  void EraseSlot(size_t hole) {
    for (size_t j = (hole + 1) & mask_; slots_[j].value != kNil;
         j = (j + 1) & mask_) {
      if (((j - Home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].value = kNil;
    size_--;
  }

  void Grow() {
    std::vector<Slot> old(std::max(kMinSlots, 2 * slots_.size()));
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.value == kNil) continue;
      size_t i = Home(s.key);
      while (slots_[i].value != kNil) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace sword::itree
