// Low-overhead metrics: lock-free sharded counters, gauges and log-bucketed
// latency histograms keyed by fixed enums.
//
// The benchmark's deliverables are per-operation-type percentile tables
// (paper Tables 6/7/9) and sustained-throughput evidence, which means the
// measurement path runs once per driver operation on every worker thread.
// The old LatencyRecorder took a global mutex per sample and retained every
// sample forever; under an 8-thread throttled run the recorder itself
// contended with the epoch-based read path it was measuring. This registry
// inverts the design:
//
//   * the record path is lock-free: a thread indexes a per-thread shard
//     (assigned once, round-robin over a fixed pool) and performs a handful
//     of relaxed atomic adds — count, sum, min/max, one histogram bucket;
//   * samples are folded into HDR-style log-bucketed histograms of bounded
//     size (relative error <= 1/32 per bucket midpoint), so memory is O(1)
//     in run length instead of O(samples);
//   * merging across shards happens only at Snapshot() time, off the hot
//     path.
//
// Metric identity is a fixed enum, not a string: no hashing, no allocation,
// no map lookup per record. OpType covers the 29 SNB operation types plus
// driver-internal series (scheduling lag, T_GC waits); Counter and Gauge
// cover the subsystems that already counted things but surfaced nothing
// (epoch advances and retired-buffer backlog, DenseTable occupancy,
// dependency-service traffic).
#ifndef SNB_OBS_METRICS_H_
#define SNB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "obs/perf_counters.h"

namespace snb::obs {

// ---- Metric identity ------------------------------------------------------

/// Per-operation latency series. Contiguous so snapshots are arrays.
enum class OpType : uint16_t {
  // Complex reads Q1..Q14 (Table 6).
  kComplexQ1 = 0,
  // Short reads S1..S7 (Table 7) follow at kShortBegin.
  // Updates U1..U8 (Table 9) follow at kUpdateBegin.
  kSchedLag = 29,     // Driver lateness behind the throttled schedule.
  kGctWait = 30,      // Time a dependent op blocked on T_GC (actual blocks
                      // only; already-satisfied waits are not recorded).
  kPointRead = 31,    // Micro: single FindPerson under a read guard.
};

inline constexpr size_t kComplexBegin = 0;   // Q1..Q14 -> 0..13.
inline constexpr size_t kShortBegin = 14;    // S1..S7  -> 14..20.
inline constexpr size_t kUpdateBegin = 21;   // U1..U8  -> 21..28.
inline constexpr size_t kNumOpTypes = 32;

/// OpType for complex read Qi (1-based, i in [1,14]).
constexpr OpType ComplexOp(int query_id) {
  return static_cast<OpType>(kComplexBegin + query_id - 1);
}
/// OpType for short read Si (1-based, i in [1,7]).
constexpr OpType ShortOp(int query_id) {
  return static_cast<OpType>(kShortBegin + query_id - 1);
}
/// OpType for update Ui (1-based, i in [1,8] — datagen::UpdateKind values).
constexpr OpType UpdateOp(int kind) {
  return static_cast<OpType>(kUpdateBegin + kind - 1);
}

/// Stable dotted name ("complex.Q9", "update.U3", "driver.sched_lag").
const char* OpTypeName(OpType op);

/// Monotonically increasing event counts (AddCounter accumulates).
enum class Counter : uint16_t {
  kOperationsExecuted = 0,
  kOperationsFailed,
  kDependenciesTracked,   // IT/CT registrations with the dependency services.
  kGctDependentWaits,     // Operations that consulted T_GC before executing.
  kShortReadWalkSteps,    // Short reads spawned by the random walk.
  kCount,
};
inline constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);
const char* CounterName(Counter c);

/// Last-write-wins instantaneous values (SetGauge overwrites).
enum class Gauge : uint16_t {
  kEpochAdvances = 0,       // Global-epoch advances since process start.
  kEpochRetired,            // Objects ever retired to the limbo list.
  kEpochFreed,              // Objects reclaimed out of the limbo list.
  kEpochPending,            // Retired-but-unfreed backlog right now.
  kPersonSlotsUsed,         // Live records vs chunk capacity: DenseTable
  kPersonSlotsAllocated,    // occupancy per entity table.
  kForumSlotsUsed,
  kForumSlotsAllocated,
  kMessageSlotsUsed,
  kMessageSlotsAllocated,
  kCount,
};
inline constexpr size_t kNumGauges = static_cast<size_t>(Gauge::kCount);
const char* GaugeName(Gauge g);

// ---- Log-bucketed histogram ----------------------------------------------

/// Bucket geometry shared by the record path and snapshots. Values are
/// nanoseconds. Values < 32 get exact unit buckets; every octave
/// [2^e, 2^(e+1)) above splits into 16 sub-buckets, so a bucket's width is
/// at most 1/16 of its lower edge and the midpoint estimate is within
/// ~3.2% of any sample in the bucket. 2^50 ns (~13 days) saturates into the
/// last bucket.
struct LogBuckets {
  static constexpr uint32_t kSubBucketBits = 4;
  static constexpr uint32_t kSubBuckets = 1u << kSubBucketBits;  // 16.
  static constexpr uint32_t kMinExponent = kSubBucketBits + 1;   // 5.
  static constexpr uint32_t kMaxExponent = 49;
  static constexpr size_t kNumBuckets =
      2 * kSubBuckets + (kMaxExponent - kMinExponent + 1) * kSubBuckets;

  static size_t BucketFor(uint64_t v) {
    if (v < 2 * kSubBuckets) return static_cast<size_t>(v);
    uint32_t e = 63 - static_cast<uint32_t>(std::countl_zero(v));
    if (e > kMaxExponent) return kNumBuckets - 1;
    uint64_t sub = (v >> (e - kSubBucketBits)) - kSubBuckets;
    return 2 * kSubBuckets +
           static_cast<size_t>(e - kMinExponent) * kSubBuckets +
           static_cast<size_t>(sub);
  }

  /// Inclusive lower edge of bucket b.
  static uint64_t BucketLow(size_t b) {
    if (b < 2 * kSubBuckets) return b;
    size_t g = (b - 2 * kSubBuckets) / kSubBuckets;
    uint32_t e = kMinExponent + static_cast<uint32_t>(g);
    uint64_t sub = (b - 2 * kSubBuckets) % kSubBuckets;
    return (uint64_t{kSubBuckets} + sub) << (e - kSubBucketBits);
  }

  /// Representative value reported for samples landing in bucket b.
  static uint64_t BucketMid(size_t b) {
    if (b < 2 * kSubBuckets) return b;  // Exact range: width 1.
    uint64_t low = BucketLow(b);
    size_t g = (b - 2 * kSubBuckets) / kSubBuckets;
    uint32_t e = kMinExponent + static_cast<uint32_t>(g);
    return low + (uint64_t{1} << (e - kSubBucketBits)) / 2;
  }
};

// ---- Snapshots ------------------------------------------------------------

/// Merged view of one operation type's latency series. `hw` totals the
/// hardware-counter deltas recorded alongside latencies (hw.mask == 0 when
/// counters were unavailable for the whole run); `hw_samples` counts how
/// many recorded operations carried valid counters.
struct OpSnapshot {
  uint64_t count = 0;
  uint64_t sum_ns = 0;
  uint64_t min_ns = 0;  // 0 when count == 0.
  uint64_t max_ns = 0;
  perf::HwCounts hw;
  uint64_t hw_samples = 0;
  std::array<uint64_t, LogBuckets::kNumBuckets> buckets{};

  double MeanUs() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) /
                            static_cast<double>(count) / 1000.0;
  }
  /// Nearest-rank percentile (p in [0,100]) in microseconds, from bucket
  /// midpoints. Monotone in p by construction.
  double PercentileUs(double p) const;
  double MaxUs() const { return static_cast<double>(max_ns) / 1000.0; }
  double MinUs() const { return static_cast<double>(min_ns) / 1000.0; }
};

/// Point-in-time merge of all shards. Consistent enough for reporting:
/// concurrent records may straddle the merge, but every sample recorded
/// before Snapshot() is counted exactly once.
struct MetricsSnapshot {
  std::array<OpSnapshot, kNumOpTypes> ops;
  std::array<uint64_t, kNumCounters> counters{};
  std::array<uint64_t, kNumGauges> gauges{};

  const OpSnapshot& Op(OpType op) const {
    return ops[static_cast<size_t>(op)];
  }
  uint64_t CounterValue(Counter c) const {
    return counters[static_cast<size_t>(c)];
  }
  uint64_t GaugeValue(Gauge g) const {
    return gauges[static_cast<size_t>(g)];
  }
  /// Total recorded latency (microseconds) over an OpType index range
  /// [begin, end) — the prefix sums the old recorder computed in O(n).
  double SumMicros(size_t begin, size_t end) const;
  /// Total sample count over an OpType index range [begin, end).
  uint64_t CountInRange(size_t begin, size_t end) const;
};

// ---- Registry -------------------------------------------------------------

/// The run-wide metrics sink. Record paths are lock-free and wait-free
/// apart from bounded min/max CAS loops; Snapshot() is the only merge
/// point. Threads are assigned shards round-robin from a fixed pool, so
/// unrelated threads may share a shard — correctness does not depend on
/// exclusivity, only the (preserved) common case of thread-private cache
/// lines.
class MetricsRegistry {
 public:
  static constexpr size_t kMaxShards = 64;  // Power of two.

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  /// Records one latency sample for `op`. Lock-free.
  void RecordLatencyNs(OpType op, uint64_t ns);
  void RecordLatencyMicros(OpType op, double micros) {
    RecordLatencyNs(op, micros <= 0.0
                            ? 0
                            : static_cast<uint64_t>(micros * 1000.0 + 0.5));
  }

  /// Accumulates `delta` onto a counter. Lock-free.
  void AddCounter(Counter c, uint64_t delta = 1);

  /// Accumulates one operation's hardware-counter delta onto `op`'s
  /// series. Lock-free; a no-op when `delta` is invalid (counters
  /// unavailable), so call sites need no backend checks.
  void RecordHwCounts(OpType op, const perf::HwCounts& delta);

  /// Overwrites a gauge with an instantaneous value.
  void SetGauge(Gauge g, uint64_t value) {
    gauges_[static_cast<size_t>(g)].store(value, std::memory_order_relaxed);
  }

  /// Merges all shards. Safe to call concurrently with record paths.
  MetricsSnapshot Snapshot() const;

 private:
  struct OpCell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_ns{0};
    std::atomic<uint64_t> min_ns{~uint64_t{0}};
    std::atomic<uint64_t> max_ns{0};
    std::atomic<uint64_t> hw[perf::kNumHwMetrics] = {};
    std::atomic<uint32_t> hw_mask{0};
    std::atomic<uint64_t> hw_samples{0};
    std::atomic<uint64_t> buckets[LogBuckets::kNumBuckets];
  };

  struct alignas(64) Shard {
    OpCell ops[kNumOpTypes];
    std::atomic<uint64_t> counters[kNumCounters];
  };

  /// This thread's shard, allocated on first use (value-initialized, so
  /// all atomics start at zero / the min sentinel set by OpCell).
  Shard& LocalShard();

  std::atomic<Shard*> shards_[kMaxShards] = {};
  std::atomic<uint64_t> gauges_[kNumGauges] = {};
};

}  // namespace snb::obs

#endif  // SNB_OBS_METRICS_H_
