#include "queries/batched_queries.h"

#include <algorithm>
#include <vector>

#include "exec/batch.h"
#include "exec/hash_join.h"
#include "exec/operators.h"
#include "obs/trace.h"

namespace snb::queries {
namespace {

using schema::PersonId;
using store::DatedEdge;
using store::MessageRecord;
using store::PersonRecord;

}  // namespace

// ---- Q5 ----------------------------------------------------------------
//
// Equivalence to Query5Scalar: the circle is the same sorted set
// (ExpandTwoHopSorted ≡ TwoHopCircleLocked); the qualifying forum set is
// identical (same strict date > min_date filter) — the scalar iterates it
// in hash order, this plan in id order, but the final comparator
// (count desc, forum asc) is a total order over distinct forum ids, so
// sort-then-truncate is order-insensitive; per-forum counts are identical
// because the block probe counts exactly the posts whose (non-null)
// creator is in the circle. TopK with a total order equals
// full-sort + resize byte for byte.

std::vector<Q5Result> Query5Batched(const GraphStore& store, PersonId start,
                                    TimestampMs min_date, int limit) {
  auto pin = store.ReadLock();
  std::vector<uint64_t> circle;
  exec::ExpandTwoHopSorted(store, pin, start, &circle);

  // Hash-join build side: circle membership.
  exec::HashSet64 circle_set(circle.size());
  for (uint64_t pid : circle) circle_set.Insert(pid);

  // Forums joined by circle members after min_date (dedup via sort: the
  // candidate list is small and already clusters by forum id).
  std::vector<uint64_t> forums;
  for (uint64_t pid : circle) {
    const PersonRecord* p = store.FindPerson(pin, pid);
    if (p == nullptr) continue;
    for (const DatedEdge& membership : p->forums.view()) {
      if (membership.date > min_date) forums.push_back(membership.id);
    }
  }
  std::sort(forums.begin(), forums.end());
  forums.erase(std::unique(forums.begin(), forums.end()), forums.end());

  auto less = [](const Q5Result& a, const Q5Result& b) {
    if (a.post_count != b.post_count) return a.post_count > b.post_count;
    return a.forum_id < b.forum_id;
  };
  exec::TopK<Q5Result, decltype(less)> top(static_cast<size_t>(limit), less);

  // Probe side: per forum, gather post creators block-at-a-time and count
  // circle hits.
  exec::Batch batch;
  uint32_t sel[exec::kBatchCapacity];
  for (uint64_t fid : forums) {
    const store::ForumRecord* forum = store.FindForum(pin, fid);
    if (forum == nullptr) continue;
    auto posts = forum->posts.view();
    uint32_t count = 0;
    size_t i = 0;
    while (i < posts.size()) {
      size_t n = std::min(exec::kBatchCapacity, posts.size() - i);
      batch.clear();
      for (size_t t = 0; t < n; ++t) {
        const MessageRecord* m = store.FindMessage(pin, posts[i + t]);
        if (m != nullptr) batch.b[batch.size++] = m->data.creator_id;
      }
      i += n;
      count += static_cast<uint32_t>(
          circle_set.ProbeBatch(batch.b, batch.size, sel));
    }
    top.Push({fid, count});
  }
  return top.Drain();
}

// ---- Q9 ----------------------------------------------------------------
//
// Equivalence to Query9Scalar: same circle; MessageScanOperator emits,
// per circle person, the newest min(qualifying, limit) messages with
// date < max_date — exactly the rows the scalar collects. The scalar then
// full-sorts by (date desc, id asc) and truncates to `limit`; message ids
// are unique, so the comparator is a total order and the bounded heap
// keeps the identical rows in the identical order.

std::vector<Q9Result> Query9Batched(const GraphStore& store, PersonId start,
                                    TimestampMs max_date, int limit,
                                    Q9PlanStats* stats,
                                    Q9OperatorProfile* profile) {
  auto pin = store.ReadLock();
  Q9PlanStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = Q9PlanStats();
  auto sink = [profile](obs::OperatorStats Q9OperatorProfile::* member) {
    return profile == nullptr ? nullptr : &(profile->*member);
  };

  std::vector<uint64_t> circle;
  exec::TwoHopStats hop = exec::ExpandTwoHopSorted(
      store, pin, start, &circle, sink(&Q9OperatorProfile::join1),
      sink(&Q9OperatorProfile::join2));
  stats->join1_output = hop.direct;
  stats->join2_output = hop.fof_tuples;

  auto less = [](const Q9Result& a, const Q9Result& b) {
    if (a.creation_date != b.creation_date) {
      return a.creation_date > b.creation_date;
    }
    return a.message_id < b.message_id;
  };
  exec::TopK<Q9Result, decltype(less)> top(static_cast<size_t>(limit), less);

  exec::MessageScanOperator scan(store, pin, circle, max_date,
                                 static_cast<size_t>(limit),
                                 sink(&Q9OperatorProfile::join3));
  exec::Batch batch;
  while (scan.Next(&batch)) {
    obs::TraceSpan span(sink(&Q9OperatorProfile::sort_limit), "sort_limit");
    for (size_t r = 0; r < batch.size; ++r) {
      top.Push({batch.a[r], batch.b[r], batch.date[r]});
    }
    span.AddRows(batch.size);
  }
  stats->join3_output = scan.rows_emitted();

  obs::TraceSpan span(sink(&Q9OperatorProfile::sort_limit), "sort_limit");
  std::vector<Q9Result> out = top.Drain();
  span.AddRows(out.size());
  return out;
}

}  // namespace snb::queries
