#include "queries/query9_plans.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "obs/trace.h"

namespace snb::queries {
namespace {

using schema::MessageId;
using schema::PersonId;
using store::FriendEdge;
using store::MessageRecord;
using store::PersonRecord;

/// Full Friends relation as a probeable hash index, built by scanning every
/// adjacency list (the cost a hash join pays that an index lookup does not).
class FriendsHashTable {
 public:
  FriendsHashTable(const GraphStore& store, const store::ReadGuard& pin) {
    for (PersonId pid : store.PersonIds(pin)) {
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      auto friends = p->friends.view();
      std::vector<PersonId>& bucket = table_[pid];
      bucket.reserve(friends.size());
      for (const FriendEdge& e : friends) bucket.push_back(e.other);
      tuples_ += friends.size();
    }
  }

  const std::vector<PersonId>* Probe(PersonId id) const {
    auto it = table_.find(id);
    return it == table_.end() ? nullptr : &it->second;
  }

  /// Friends tuples scanned to build the table.
  uint64_t tuples() const { return tuples_; }

 private:
  std::unordered_map<PersonId, std::vector<PersonId>> table_;
  uint64_t tuples_ = 0;
};

/// Emits the friends of `id` through `emit`, via index lookup or the
/// prebuilt hash table.
template <typename EmitFn>
void JoinFriends(const GraphStore& store, const store::ReadGuard& pin,
                 JoinStrategy strategy, const FriendsHashTable* hash,
                 PersonId id, EmitFn emit) {
  if (strategy == JoinStrategy::kIndexNestedLoop) {
    const PersonRecord* p = store.FindPerson(pin, id);
    if (p == nullptr) return;
    for (const FriendEdge& e : p->friends.view()) emit(e.other);
  } else {
    const std::vector<PersonId>* bucket = hash->Probe(id);
    if (bucket == nullptr) return;
    for (PersonId other : *bucket) emit(other);
  }
}

}  // namespace

std::vector<Q9Result> Query9WithPlan(const GraphStore& store,
                                     PersonId start, TimestampMs max_date,
                                     int limit, JoinStrategy join1,
                                     JoinStrategy join2, JoinStrategy join3) {
  auto pin = store.ReadLock();

  // A hash-join plan builds its table once per join over the full relation.
  std::unique_ptr<FriendsHashTable> friends_hash;
  if (join1 == JoinStrategy::kHash || join2 == JoinStrategy::kHash) {
    obs::TraceSpan span("hash_build");
    friends_hash = std::make_unique<FriendsHashTable>(store, pin);
    span.AddRows(friends_hash->tuples());
  }

  // join1: person |>< friends.
  std::vector<PersonId> friends;
  {
    obs::TraceSpan span("join1");
    JoinFriends(store, pin, join1, friends_hash.get(), start,
                [&](PersonId f) { friends.push_back(f); });
    span.AddRows(friends.size());
  }

  // join2: friends |>< friends -> two-hop circle (deduplicated union).
  std::unordered_set<PersonId> circle(friends.begin(), friends.end());
  circle.erase(start);
  {
    obs::TraceSpan span("join2");
    uint64_t tuples = 0;
    for (PersonId f : friends) {
      JoinFriends(store, pin, join2, friends_hash.get(), f, [&](PersonId ff) {
        ++tuples;
        if (ff != start) circle.insert(ff);
      });
    }
    span.AddRows(tuples);
  }

  // join3: circle |>< messages (creation_date < max_date).
  if (join3 == JoinStrategy::kHash) {
    // The hash join's build side is the circle, which join2's
    // deduplication already hashed; count it as build input.
    obs::TraceSpan span("hash_build");
    span.AddRows(circle.size());
  }
  std::vector<Q9Result> candidates;
  {
    obs::TraceSpan span("join3");
    if (join3 == JoinStrategy::kIndexNestedLoop) {
      for (PersonId pid : circle) {
        const PersonRecord* p = store.FindPerson(pin, pid);
        if (p == nullptr) continue;
        for (auto messages : {p->posts.view(), p->comments.view()}) {
          for (const store::MessageEdge& e : messages) {
            if (e.date >= max_date) break;  // Date-ordered index.
            candidates.push_back({e.id, pid, e.date});
          }
        }
      }
    } else {
      // Hash join: scan the whole message table, probe the circle.
      MessageId bound = store.MessageIdBound();
      for (MessageId mid = 0; mid < bound; ++mid) {
        const MessageRecord* m = store.FindMessage(pin, mid);
        if (m == nullptr || m->data.creation_date >= max_date) continue;
        if (circle.count(m->data.creator_id) == 0) continue;
        candidates.push_back(
            {mid, m->data.creator_id, m->data.creation_date});
      }
    }
    span.AddRows(candidates.size());
  }

  {
    obs::TraceSpan span("sort_limit");
    std::sort(candidates.begin(), candidates.end(),
              [](const Q9Result& a, const Q9Result& b) {
                if (a.creation_date != b.creation_date) {
                  return a.creation_date > b.creation_date;
                }
                return a.message_id < b.message_id;
              });
    if (static_cast<int>(candidates.size()) > limit) {
      candidates.resize(limit);
    }
    span.AddRows(candidates.size());
  }
  return candidates;
}

}  // namespace snb::queries
