// Bitmap set over dense ids: the per-query person sets of the complex
// reads (two-hop circles, Q1's one- and two-hop levels, BFS visited sets,
// BFS layers, Q14's shortest-path persons), Q5's joined forums, Q14's
// swept pair slots and Q10's interest tags.
//
// These ids are dense by construction: datagen counts person ids up from
// zero, and the store's DenseTables index by them; tag ids number the tag
// dictionary. A query's person set covers a large share of that range —
// at SF0.4 (2,400 persons) a two-hop circle holds about 14% of the ids —
// so one bit per id below GraphStore::PersonIdBound() beats a hash set:
// 300 bytes to zero and scan, one load and mask per probe, and members
// come out in ascending id order with no sort. Forum ids are sparser (a
// few slots per person), but Q5's set, sized by GraphStore::ForumIdBound(),
// is still only 2.4 KB at SF0.4 (19,194 ids) for about 2,300 forums, and
// its ascending walk replaces a sort and dedupe of their memberships.
//
// The set grows on insert, so a person added after the bound was read (a
// concurrent AddPerson whose id then shows up in a friend list the query
// walks) still lands in it. Storage follows the largest id inserted, so
// callers insert only ids they found in the store, never an unchecked
// parameter: a far id such as 2^39 would ask for a 64 GiB bitmap. A set is
// private to one query execution on one thread.
#ifndef SNB_EXEC_DENSE_ID_SET_H_
#define SNB_EXEC_DENSE_ID_SET_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace snb::exec {

class DenseIdSet {
 public:
  /// Holds ids below `bound` without growing.
  explicit DenseIdSet(uint64_t bound = 0) : words_((bound + 63) / 64, 0) {}

  /// Adds `id`; true when it was not already present, so "visit if
  /// unseen" is one probe.
  bool Insert(uint64_t id) {
    size_t word = id / 64;
    if (word >= words_.size()) {
      words_.resize(std::max(word + 1, words_.size() * 2), 0);
    }
    uint64_t bit = uint64_t{1} << (id % 64);
    if ((words_[word] & bit) != 0) return false;
    words_[word] |= bit;
    ++size_;
    return true;
  }

  bool Contains(uint64_t id) const {
    size_t word = id / 64;
    return word < words_.size() && ((words_[word] >> (id % 64)) & 1) != 0;
  }

  void Erase(uint64_t id) {
    if (!Contains(id)) return;
    words_[id / 64] &= ~(uint64_t{1} << (id % 64));
    --size_;
  }

  size_t size() const { return size_; }

  /// Calls fn(id) for every member in ascending id order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t word = 0; word < words_.size(); ++word) {
      for (uint64_t bits = words_[word]; bits != 0; bits &= bits - 1) {
        fn(static_cast<uint64_t>(word * 64 + std::countr_zero(bits)));
      }
    }
  }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

}  // namespace snb::exec

#endif  // SNB_EXEC_DENSE_ID_SET_H_
