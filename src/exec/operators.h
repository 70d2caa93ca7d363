// Physical operators of the query plans: two-hop expansion, the
// date-bounded message scan, and the bounded top-k sink.
//
// Each operator takes the caller's ReadGuard (snapshot-read
// capability, discipline identical to the store accessors) and an optional
// obs::OperatorStats sink — a null sink disengages the TraceSpans
// entirely, so unprofiled runs take no timestamps.
#ifndef SNB_EXEC_OPERATORS_H_
#define SNB_EXEC_OPERATORS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/batch.h"
#include "exec/dense_id_set.h"
#include "obs/trace.h"
#include "store/graph_store.h"
#include "util/datetime.h"
#include "util/epoch.h"

namespace snb::exec {

/// Cardinalities of one two-hop expansion, in the same terms the Q9 plan
/// ablation counts them (Cout of the two joins).
struct TwoHopStats {
  uint64_t direct = 0;      // |friends(start)| — join1 output.
  uint64_t fof_tuples = 0;  // Friend-of-friend tuples pre-dedup — join2.
};

/// Two-hop circle of `start` (direct friends plus friends of friends,
/// `start` itself excluded) in ascending id order, deduplicated in a
/// DenseIdSet. When `members` is non-null it must be empty and receives
/// the circle as a set; it keeps the size the caller gave it and grows
/// for persons past it, so `DenseIdSet(store.PersonIdBound())` is the
/// usual argument. A missing `start` yields an empty circle and touches
/// no set. Spans: join1 = direct expansion, join2 = friend-of-friend
/// expansion; either sink may be null.
TwoHopStats ExpandTwoHop(const store::GraphStore& store,
                         const store::ReadGuard& pin, uint64_t start,
                         std::vector<uint64_t>* circle,
                         DenseIdSet* members = nullptr,
                         obs::OperatorStats* join1_sink = nullptr,
                         obs::OperatorStats* join2_sink = nullptr);

/// Scans the created-message index of each person in a sorted id list and
/// emits blocks of (a = message id, b = creator id, date = creation date)
/// for messages with date < max_date_exclusive. Per person, only the
/// newest min(qualifying, per_person_limit) rows are emitted — when the
/// consumer is a top-`limit` sink ordered by (date desc, id asc), rows
/// beyond the newest `limit` of one person can never reach the global
/// top `limit`, so skipping them is exact (the scalar Q9 applies the same
/// truncation). Pass per_person_limit = SIZE_MAX for an unbounded scan.
///
/// The date cut is a binary search on the inline date column of the
/// adjacency entries (the index is date-ascending): no message record is
/// touched, qualifying rows are block-copied.
class MessageScanOperator : public Operator {
 public:
  /// `persons` must outlive the operator; `stats` may be null.
  MessageScanOperator(const store::GraphStore& store,
                      const store::ReadGuard& pin,
                      const std::vector<uint64_t>& persons,
                      util::TimestampMs max_date_exclusive,
                      size_t per_person_limit,
                      obs::OperatorStats* stats = nullptr);

  bool Next(Batch* out) override;

  /// Total rows emitted so far (the join's Cout).
  uint64_t rows_emitted() const { return rows_emitted_; }

 private:
  /// Opens the next person with qualifying rows; false when none left.
  bool OpenNextPerson();

  const store::GraphStore& store_;
  const store::ReadGuard& pin_;
  const std::vector<uint64_t>& persons_;
  const util::TimestampMs max_date_exclusive_;
  const size_t per_person_limit_;
  obs::OperatorStats* const stats_;

  size_t person_idx_ = 0;  // Next person to open.
  // Cursor into the open person's message edges. The raw pointer stays
  // valid while `pin_` is held (RCU buffer lifetime).
  const store::MessageEdge* edges_ = nullptr;
  size_t pos_ = 0;
  size_t end_ = 0;
  uint64_t current_person_ = 0;
  uint64_t rows_emitted_ = 0;
};

/// Bounded top-k sink: keeps the k best rows under `Less`, where
/// Less(a, b) means "a ranks before b". Backed by a max-heap of the
/// currently-worst kept row, so a non-qualifying row costs one comparison
/// and no allocation. With a total-order comparator (every query's sort
/// key includes a unique id column) the kept set and its drained order
/// are byte-identical to full-sort-then-truncate.
template <typename Row, typename Less>
class TopK {
 public:
  explicit TopK(size_t k, Less less = Less()) : k_(k), less_(less) {
    heap_.reserve(k);
  }

  void Push(const Row& row) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(row);
      std::push_heap(heap_.begin(), heap_.end(), less_);
      return;
    }
    if (less_(row, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), less_);
      heap_.back() = row;
      std::push_heap(heap_.begin(), heap_.end(), less_);
    }
  }

  size_t size() const { return heap_.size(); }

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
