// Flat u64 hash map: the shortest-path level table and pair-weight table
// of Q14, and the tag counters of Q4 and Q6. (Per-query sets of dense
// ids, persons and Q10's interest tags, are exec::DenseIdSet bitmaps
// instead.)
//
// std::unordered_map pays a pointer chase and an allocation per node on
// small keys. This table is a flat power-of-two array with linear probing
// (Mix64-scrambled keys, load factor <= 0.5): a lookup touches one
// contiguous array.
//
// Keys are entity ids, all < 2^40 (the store rejects larger), 32-bit tag
// ids, or packed values below ~0ULL, so ~0ULL (schema::kInvalidId) is safe
// as the empty-slot sentinel. A table is private to one query execution on
// one thread: no concurrency, no tombstones. It grows by doubling whenever
// an insert would push the load past 0.5, so the constructor's `expected`
// count is only a sizing hint.
#ifndef SNB_EXEC_HASH_JOIN_H_
#define SNB_EXEC_HASH_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace snb::exec {

/// Flat hash map u64 -> u64 (Q14's shortest-path level table and
/// pair-weight table, Q4's and Q6's tag counts).
class HashMap64 {
 public:
  static constexpr uint64_t kEmpty = ~0ULL;

  explicit HashMap64(size_t expected = 0) { Rebuild(expected); }

  /// Inserts or overwrites.
  void Put(uint64_t key, uint64_t value) { values_[Slot(key)] = value; }

  /// Inserts `key` -> `value` only when `key` is absent; true when it was.
  /// One probe either way.
  bool Insert(uint64_t key, uint64_t value) {
    size_t before = size_;
    size_t idx = Slot(key);
    if (size_ == before) return false;
    values_[idx] = value;
    return true;
  }

  /// The value of `key`, claimed as 0 when it was absent (`++map.At(k)`
  /// counts). The reference is valid until the next Put, Insert or At.
  uint64_t& At(uint64_t key) { return values_[Slot(key)]; }

  /// nullptr when absent; the pointer is valid until the next Put, Insert
  /// or At, any of which may grow the table.
  const uint64_t* Find(uint64_t key) const {
    size_t idx = IndexOf(key);
    while (keys_[idx] != kEmpty) {
      if (keys_[idx] == key) return &values_[idx];
      idx = (idx + 1) & mask_;
    }
    return nullptr;
  }

  size_t size() const { return size_; }

  /// Calls fn(key, value) for every entry, in slot (not key) order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) fn(keys_[i], values_[i]);
    }
  }

 private:
  size_t IndexOf(uint64_t key) const { return util::Mix64(key) & mask_; }

  /// The slot holding `key`, claimed (value 0) when it was absent.
  size_t Slot(uint64_t key) {
    if (size_ + 1 > keys_.size() / 2) Grow();
    size_t idx = IndexOf(key);
    while (keys_[idx] != kEmpty && keys_[idx] != key) {
      idx = (idx + 1) & mask_;
    }
    if (keys_[idx] == kEmpty) {
      keys_[idx] = key;
      ++size_;
    }
    return idx;
  }

  void Rebuild(size_t expected) {
    size_t cap = 16;
    while (cap < expected * 2 + 1) cap <<= 1;
    keys_.assign(cap, kEmpty);
    values_.assign(cap, 0);
    mask_ = cap - 1;
    size_ = 0;
  }

  void Grow() {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<uint64_t> old_values = std::move(values_);
    keys_.assign(old_keys.size() * 2, kEmpty);
    values_.assign(old_keys.size() * 2, 0);
    mask_ = keys_.size() - 1;
    size_ = 0;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmpty) Put(old_keys[i], old_values[i]);
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<uint64_t> values_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace snb::exec

#endif  // SNB_EXEC_HASH_JOIN_H_
