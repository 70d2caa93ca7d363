// Intermediate-result recycling (paper section 3, "Parallelism and result
// reuse").
//
// Most complex reads retrieve one- or two-hop person neighbourhoods, and
// the Person domain is small, so partial results of "high value" — large,
// expensive, frequently recomputed — are worth caching across queries. The
// recycler caches 2-hop circles keyed by person and invalidates them
// through the store's Knows-edge count: friendships are insert-only, so the
// count changes exactly when the Knows graph does (any new friendship could
// extend any circle, so invalidation is conservative and global). Not on
// the driver path: bench_recycling_ablation measures it against Query9.
#ifndef SNB_QUERIES_RECYCLER_H_
#define SNB_QUERIES_RECYCLER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "queries/complex_queries.h"
#include "store/graph_store.h"

namespace snb::queries {

/// Thread-safe cache of 2-hop circles with version-based invalidation.
class TwoHopRecycler {
 public:
  /// `capacity`: maximum cached circles. At capacity the cache evicts one
  /// victim per insert by clock (second-chance): hot circles — the
  /// "high-value" partial results the paper recycles — survive, cold ones
  /// rotate out.
  explicit TwoHopRecycler(size_t capacity = 4096) : capacity_(capacity) {}

  TwoHopRecycler(const TwoHopRecycler&) = delete;
  TwoHopRecycler& operator=(const TwoHopRecycler&) = delete;

  /// The 2-hop circle of `person` (excluding the person, sorted), recycled
  /// when no friendship has been added since it was computed.
  std::shared_ptr<const std::vector<schema::PersonId>> Get(
      const GraphStore& store, schema::PersonId person);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Entries displaced by the clock hand (capacity pressure only; version
  /// refreshes overwrite in place).
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    /// GraphStore::NumKnowsEdges() when the circle was computed.
    uint64_t version = 0;
    /// Second-chance bit: set on hit, cleared when the hand sweeps by.
    bool referenced = false;
    std::shared_ptr<const std::vector<schema::PersonId>> circle;
  };

  /// Inserts or overwrites under mu_, evicting by clock when full.
  void PutLocked(schema::PersonId person, Entry entry) SNB_REQUIRES(mu_);

  size_t capacity_;
  util::Mutex mu_;
  std::unordered_map<schema::PersonId, Entry> cache_ SNB_GUARDED_BY(mu_);
  /// Clock ring over the cached keys; `hand_` is the sweep position.
  std::vector<schema::PersonId> ring_ SNB_GUARDED_BY(mu_);
  size_t hand_ SNB_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

/// Query 9 on top of the recycler: identical results to Query9(), with the
/// 2-hop retrieval recycled across invocations and the rest of the plan
/// shared with it (Query9OverCircle).
std::vector<Q9Result> Query9Recycled(const GraphStore& store,
                                     TwoHopRecycler& recycler,
                                     schema::PersonId start,
                                     TimestampMs max_date, int limit = 20);

}  // namespace snb::queries

#endif  // SNB_QUERIES_RECYCLER_H_
