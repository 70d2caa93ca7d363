// Physical operators of the query plans: two-hop expansion and the
// bounded top-k sink.
//
// Store-backed operators take the caller's ReadGuard (snapshot-read
// capability, discipline identical to the store accessors) and run under
// obs::TraceSpans, so a thread with an obs::OperatorProfile installed
// gets their rows and an unobserved run pays one thread-local load per
// span.
#ifndef SNB_EXEC_OPERATORS_H_
#define SNB_EXEC_OPERATORS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/dense_id_set.h"
#include "store/graph_store.h"

namespace snb::exec {

/// Two-hop circle of `start` (direct friends plus friends of friends,
/// `start` itself excluded) in ascending id order, deduplicated in a
/// DenseIdSet. When `members` is non-null it must be empty and receives
/// the circle as a set; it keeps the size the caller gave it and grows
/// for persons past it, so `DenseIdSet(store.PersonIdBound())` is the
/// usual argument. A missing `start` yields an empty circle and touches
/// no set. Spans (the Q9 plan ablation's Cout): join1 = direct expansion,
/// one row per friend; join2 = friend-of-friend expansion, one row per
/// friend-of-friend tuple before deduplication.
void ExpandTwoHop(const store::GraphStore& store, const store::ReadGuard& pin,
                  uint64_t start, std::vector<uint64_t>* circle,
                  DenseIdSet* members = nullptr);

/// Bounded top-k sink: keeps the k best rows under `Less`, where
/// Less(a, b) means "a ranks before b". Backed by a max-heap of the
/// currently-worst kept row, so a non-qualifying row costs one comparison
/// and no allocation. With a total-order comparator (every query's sort
/// key includes a unique id column) the kept set and its drained order
/// are byte-identical to full-sort-then-truncate.
///
/// A producer that feeds rows in rank order, worst last, can stop early:
/// once Push rejects a row, every later row that ranks no better than
/// worst() would be rejected too (Q2 and Q9 walk each date-sorted list
/// newest-first and stop at the first rejected row older than worst()).
template <typename Row, typename Less>
class TopK {
 public:
  explicit TopK(size_t k, Less less = Less()) : k_(k), less_(less) {
    heap_.reserve(k);
  }

  /// Offers `row`; true when it was kept (it may be evicted later).
  bool Push(const Row& row) {
    if (k_ == 0) return false;
    if (heap_.size() < k_) {
      heap_.push_back(row);
      std::push_heap(heap_.begin(), heap_.end(), less_);
      return true;
    }
    if (!less_(row, heap_.front())) return false;
    std::pop_heap(heap_.begin(), heap_.end(), less_);
    heap_.back() = row;
    std::push_heap(heap_.begin(), heap_.end(), less_);
    return true;
  }

  size_t size() const { return heap_.size(); }

  /// The worst kept row, the one the next better row would evict. Only
  /// once the sink is full (size() == k > 0), which a rejected Push with
  /// k > 0 implies.
  const Row& worst() const { return heap_.front(); }

  /// Rows in rank order (best first); the sink is empty afterwards.
  std::vector<Row> Drain() {
    std::sort_heap(heap_.begin(), heap_.end(), less_);
    return std::move(heap_);
  }

 private:
  size_t k_;
  Less less_;
  std::vector<Row> heap_;
};

}  // namespace snb::exec

#endif  // SNB_EXEC_OPERATORS_H_
