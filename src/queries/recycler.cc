#include "queries/recycler.h"

#include <utility>

namespace snb::queries {

std::shared_ptr<const std::vector<schema::PersonId>> TwoHopRecycler::Get(
    const GraphStore& store, schema::PersonId person) {
  // Read the version before computing: if a write lands in between, the
  // entry is stored under the older version and simply recomputed next
  // time — stale entries are never served because the stored version must
  // match the current one at lookup.
  uint64_t version = store.NumKnowsEdges();
  {
    util::MutexLock lock(&mu_);
    auto it = cache_.find(person);
    if (it != cache_.end() && it->second.version == version) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      it->second.referenced = true;
      return it->second.circle;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto circle = std::make_shared<const std::vector<schema::PersonId>>(
      TwoHopCircle(store, person));
  {
    util::MutexLock lock(&mu_);
    PutLocked(person, {version, true, circle});
  }
  return circle;
}

void TwoHopRecycler::PutLocked(schema::PersonId person, Entry entry) {
  auto it = cache_.find(person);
  if (it != cache_.end()) {
    // Version refresh: the key already owns a ring slot.
    it->second = std::move(entry);
    return;
  }
  if (cache_.size() >= capacity_ && !ring_.empty()) {
    // Clock sweep: skip (and strip) referenced entries; evict the first
    // unreferenced one and reuse its ring slot. Terminates within two
    // passes — the first pass clears every referenced bit it crosses.
    for (;;) {
      auto victim = cache_.find(ring_[hand_]);
      if (victim->second.referenced) {
        victim->second.referenced = false;
        hand_ = (hand_ + 1) % ring_.size();
        continue;
      }
      cache_.erase(victim);
      ring_[hand_] = person;
      hand_ = (hand_ + 1) % ring_.size();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  } else {
    ring_.push_back(person);
  }
  cache_[person] = std::move(entry);
}

std::vector<Q9Result> Query9Recycled(const GraphStore& store,
                                     TwoHopRecycler& recycler,
                                     schema::PersonId start,
                                     TimestampMs max_date, int limit) {
  std::shared_ptr<const std::vector<schema::PersonId>> circle =
      recycler.Get(store, start);
  auto pin = store.ReadLock();
  return Query9OverCircle(store, pin, *circle, max_date, limit);
}

}  // namespace snb::queries
