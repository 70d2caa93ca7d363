#include "queries/query9_plans.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

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
  FriendsHashTable(const GraphStore& store, const store::ReadGuard& pin,
                   Q9PlanStats* stats) {
    for (PersonId pid : store.PersonIds(pin)) {
      const PersonRecord* p = store.FindPerson(pin, pid);
      if (p == nullptr) continue;
      auto friends = p->friends.view();
      std::vector<PersonId>& bucket = table_[pid];
      bucket.reserve(friends.size());
      for (const FriendEdge& e : friends) {
        bucket.push_back(e.other);
        if (stats != nullptr) ++stats->build_tuples;
      }
    }
  }

  const std::vector<PersonId>* Probe(PersonId id) const {
    auto it = table_.find(id);
    return it == table_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<PersonId, std::vector<PersonId>> table_;
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

std::vector<std::pair<std::string, obs::OperatorStats>> ProfileRows(
    const Q9OperatorProfile& profile) {
  std::vector<std::pair<std::string, obs::OperatorStats>> rows;
  auto add = [&rows](const char* name, const obs::OperatorStats& s) {
    if (s.invocations > 0) rows.emplace_back(name, s);
  };
  add("hash_build", profile.hash_build);
  add("join1_friends", profile.join1);
  add("join2_friends_of_friends", profile.join2);
  add("join3_messages", profile.join3);
  add("sort_limit", profile.sort_limit);
  return rows;
}

obs::Q9ProfileSection MakeQ9ProfileSection(const Q9OperatorProfile& profile,
                                           std::string plan_label) {
  obs::Q9ProfileSection section;
  section.plan = std::move(plan_label);
  for (auto& [name, stats] : ProfileRows(profile)) {
    section.operators.push_back({std::move(name), stats});
  }
  return section;
}

std::vector<Q9Result> Query9WithPlan(const GraphStore& store,
                                     PersonId start, TimestampMs max_date,
                                     int limit, JoinStrategy join1,
                                     JoinStrategy join2, JoinStrategy join3,
                                     Q9PlanStats* stats,
                                     Q9OperatorProfile* profile) {
  auto pin = store.ReadLock();
  Q9PlanStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = Q9PlanStats();
  // Null sinks disengage the spans entirely: no clock reads when no
  // profile was requested.
  auto sink = [profile](obs::OperatorStats Q9OperatorProfile::* member) {
    return profile == nullptr ? nullptr : &(profile->*member);
  };

  // A hash-join plan builds its table once per join over the full relation.
  std::unique_ptr<FriendsHashTable> friends_hash;
  if (join1 == JoinStrategy::kHash || join2 == JoinStrategy::kHash) {
    obs::TraceSpan span(sink(&Q9OperatorProfile::hash_build), "hash_build");
    friends_hash = std::make_unique<FriendsHashTable>(store, pin, stats);
    span.AddRows(stats->build_tuples);
  }

  // join1: person |>< friends.
  std::vector<PersonId> friends;
  {
    obs::TraceSpan span(sink(&Q9OperatorProfile::join1), "join1");
    JoinFriends(store, pin, join1, friends_hash.get(), start, [&](PersonId f) {
      friends.push_back(f);
      ++stats->join1_output;
    });
    span.AddRows(stats->join1_output);
  }

  // join2: friends |>< friends -> two-hop circle (deduplicated union).
  std::unordered_set<PersonId> circle(friends.begin(), friends.end());
  circle.erase(start);
  {
    obs::TraceSpan span(sink(&Q9OperatorProfile::join2), "join2");
    for (PersonId f : friends) {
      JoinFriends(store, pin, join2, friends_hash.get(), f, [&](PersonId ff) {
        ++stats->join2_output;
        if (ff != start) circle.insert(ff);
      });
    }
    span.AddRows(stats->join2_output);
  }

  // join3: circle |>< messages (creation_date < max_date).
  std::vector<Q9Result> candidates;
  {
    obs::TraceSpan span(sink(&Q9OperatorProfile::join3), "join3");
    if (join3 == JoinStrategy::kIndexNestedLoop) {
      for (PersonId pid : circle) {
        const PersonRecord* p = store.FindPerson(pin, pid);
        if (p == nullptr) continue;
        for (const store::MessageEdge& e : p->messages.view()) {
          if (e.date >= max_date) break;  // Date-ordered index.
          candidates.push_back({e.id, pid, e.date});
          ++stats->join3_output;
        }
      }
    } else {
      // Hash join: scan the whole message table, probe the circle.
      MessageId bound = store.MessageIdBound();
      stats->build_tuples += circle.size();
      for (MessageId mid = 0; mid < bound; ++mid) {
        const MessageRecord* m = store.FindMessage(pin, mid);
        if (m == nullptr || m->data.creation_date >= max_date) continue;
        if (circle.count(m->data.creator_id) == 0) continue;
        candidates.push_back(
            {mid, m->data.creator_id, m->data.creation_date});
        ++stats->join3_output;
      }
    }
    span.AddRows(stats->join3_output);
  }

  {
    obs::TraceSpan span(sink(&Q9OperatorProfile::sort_limit), "sort_limit");
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
