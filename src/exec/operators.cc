#include "exec/operators.h"

#include "obs/trace.h"

namespace snb::exec {

using store::FriendEdge;
using store::PersonRecord;

void ExpandTwoHop(const store::GraphStore& store, const store::ReadGuard& pin,
                  uint64_t start, std::vector<uint64_t>* circle,
                  DenseIdSet* members) {
  circle->clear();
  const PersonRecord* p = store.FindPerson(pin, start);
  if (p == nullptr) return;
  DenseIdSet local(members == nullptr ? store.PersonIdBound() : 0);
  DenseIdSet& seen = members == nullptr ? local : *members;

  auto friends = p->friends.view();
  {
    obs::TraceSpan span("join1");
    for (const FriendEdge& e : friends) seen.Insert(e.other);
    span.AddRows(friends.size());
  }
  {
    obs::TraceSpan span("join2");
    for (const FriendEdge& e : friends) {
      const PersonRecord* f = store.FindPerson(pin, e.other);
      if (f == nullptr) continue;
      auto fof = f->friends.view();
      for (const FriendEdge& e2 : fof) seen.Insert(e2.other);
      span.AddRows(fof.size());
    }
    // Friendship is symmetric, so `start` came back as a friend of each
    // friend; nobody friends themselves, so it was never a direct friend.
    seen.Erase(start);
  }

  circle->reserve(seen.size());
  seen.ForEach([circle](uint64_t id) { circle->push_back(id); });
}

}  // namespace snb::exec
