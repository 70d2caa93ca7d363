#include "exec/operators.h"

#include <algorithm>

namespace snb::exec {

using store::FriendEdge;
using store::MessageEdge;
using store::PersonRecord;

TwoHopStats ExpandTwoHop(const store::GraphStore& store,
                         const store::ReadGuard& pin, uint64_t start,
                         std::vector<uint64_t>* circle, DenseIdSet* members,
                         obs::OperatorStats* join1_sink,
                         obs::OperatorStats* join2_sink) {
  TwoHopStats stats;
  circle->clear();
  const PersonRecord* p = store.FindPerson(pin, start);
  if (p == nullptr) return stats;
  DenseIdSet local(members == nullptr ? store.PersonIdBound() : 0);
  DenseIdSet& seen = members == nullptr ? local : *members;

  auto friends = p->friends.view();
  {
    obs::TraceSpan span(join1_sink, "join1");
    for (const FriendEdge& e : friends) seen.Insert(e.other);
    stats.direct = friends.size();
    span.AddRows(stats.direct);
  }
  {
    obs::TraceSpan span(join2_sink, "join2");
    for (const FriendEdge& e : friends) {
      const PersonRecord* f = store.FindPerson(pin, e.other);
      if (f == nullptr) continue;
      auto fof = f->friends.view();
      for (const FriendEdge& e2 : fof) seen.Insert(e2.other);
      stats.fof_tuples += fof.size();
    }
    // Friendship is symmetric, so `start` came back as a friend of each
    // friend; nobody friends themselves, so it was never a direct friend.
    seen.Erase(start);
    span.AddRows(stats.fof_tuples);
  }

  circle->reserve(seen.size());
  seen.ForEach([circle](uint64_t id) { circle->push_back(id); });
  return stats;
}

MessageScanOperator::MessageScanOperator(const store::GraphStore& store,
                                         const store::ReadGuard& pin,
                                         const std::vector<uint64_t>& persons,
                                         util::TimestampMs max_date_exclusive,
                                         size_t per_person_limit,
                                         obs::OperatorStats* stats)
    : store_(store),
      pin_(pin),
      persons_(persons),
      max_date_exclusive_(max_date_exclusive),
      per_person_limit_(per_person_limit),
      stats_(stats) {}

bool MessageScanOperator::OpenNextPerson() {
  while (person_idx_ < persons_.size()) {
    uint64_t pid = persons_[person_idx_++];
    const PersonRecord* p = store_.FindPerson(pin_, pid);
    if (p == nullptr) continue;
    auto view = p->messages.view();
    // First index with date >= max_date_exclusive; the index is
    // date-ascending with dates inline, so the cut touches no records.
    auto it = std::partition_point(
        view.begin(), view.end(),
        [this](const MessageEdge& e) { return e.date < max_date_exclusive_; });
    size_t upper = static_cast<size_t>(it - view.begin());
    size_t take = std::min(upper, per_person_limit_);
    if (take == 0) continue;
    edges_ = view.data();
    pos_ = upper - take;
    end_ = upper;
    current_person_ = pid;
    return true;
  }
  return false;
}

bool MessageScanOperator::Next(Batch* out) {
  obs::TraceSpan span(stats_, "message_scan");
  out->clear();
  while (out->size < kBatchCapacity) {
    if (pos_ == end_ && !OpenNextPerson()) break;
    size_t n = std::min(kBatchCapacity - out->size, end_ - pos_);
    for (size_t i = 0; i < n; ++i) {
      const MessageEdge& e = edges_[pos_ + i];
      out->a[out->size + i] = e.id;
      out->b[out->size + i] = current_person_;
      out->date[out->size + i] = e.date;
    }
    pos_ += n;
    out->size += n;
  }
  rows_emitted_ += out->size;
  span.AddRows(out->size);
  return out->size > 0;
}

}  // namespace snb::exec
