// Slow-query dossiers: tail-latency attribution for report.json.
//
// Percentile tables say the p99 of Q9 is 40x its median; they cannot say
// which operator inside those tail instances burned the time, or whether
// the tail is cache misses rather than extra rows. A dossier captures one
// query instance's full story — latency, the plan's per-operator span
// rows (invocations, wall time, rows) and hardware-counter deltas — and the
// collector keeps the slowest N instances per operation type, so
// report.json always explains its own tail.
//
// The offer path must not perturb the run it measures: a per-op atomic
// latency floor (the smallest latency currently kept, once the slot set is
// full) lets the common case — "this instance is not a tail" — bail with
// one relaxed load and no lock. Only genuine tail candidates take the
// mutex, which is uncontended at that rate by construction.
#ifndef SNB_OBS_DOSSIER_H_
#define SNB_OBS_DOSSIER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "util/mutex.h"

namespace snb::obs {

/// Everything captured about one slow query instance.
struct SlowQueryDossier {
  OpType op = OpType::kComplexQ1;
  uint64_t seq = 0;         // Operation sequence number within the run.
  uint64_t latency_ns = 0;  // Whole-operation latency (same window the
                            // percentile tables record).
  perf::HwCounts hw;        // Whole-operation counter delta; mask == 0
                            // when counters were unavailable.
  /// The plan's operator profile (trace.h): one row per span label.
  /// Empty for short reads and updates, which run no spans.
  std::vector<OperatorRow> operators;
};

/// Keeps the slowest `keep_per_op` dossiers for every operation type.
/// Thread-safe; WouldKeep is the lock-free hot-path pre-filter.
class DossierCollector {
 public:
  explicit DossierCollector(size_t keep_per_op = 3)
      : keep_per_op_(keep_per_op == 0 ? 1 : keep_per_op) {}
  DossierCollector(const DossierCollector&) = delete;
  DossierCollector& operator=(const DossierCollector&) = delete;

  size_t keep_per_op() const { return keep_per_op_; }

  /// True when a `latency_ns` instance of `op` would enter the kept set.
  /// One relaxed load; callers skip dossier assembly entirely on false.
  bool WouldKeep(OpType op, uint64_t latency_ns) const {
    return latency_ns >
           floor_ns_[static_cast<size_t>(op)].load(std::memory_order_relaxed);
  }

  /// Inserts `d` if it is among the slowest kept for its op; otherwise
  /// drops it (a racing faster instance may have raised the floor since
  /// WouldKeep).
  void Offer(SlowQueryDossier d);

  /// All kept dossiers, grouped by op, slowest first within each op.
  std::vector<SlowQueryDossier> Snapshot() const;

  /// Total dossiers currently kept (across all ops).
  size_t Size() const;

 private:
  const size_t keep_per_op_;
  /// Admission floors: 0 while an op's slot set is not full, then the
  /// smallest kept latency. Monotone non-decreasing, so a stale read can
  /// only admit too much (corrected under the lock), never lose a tail.
  std::atomic<uint64_t> floor_ns_[kNumOpTypes] = {};
  mutable util::Mutex mu_;
  /// Kept dossiers per op, sorted by latency descending.
  std::vector<SlowQueryDossier> kept_[kNumOpTypes] SNB_GUARDED_BY(mu_);
};

}  // namespace snb::obs

#endif  // SNB_OBS_DOSSIER_H_
