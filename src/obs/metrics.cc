#include "obs/metrics.h"

#include "util/invariant_root.h"

namespace snb::obs {
namespace {

/// Process-wide thread numbering: each thread gets a stable id on first
/// record, mapped onto the shard pool by masking. Ids are never reused, so
/// a long-lived thread keeps its shard (and its cache lines) forever;
/// thread churn only rotates which shard newcomers share.
std::atomic<uint32_t> g_next_thread_id{0};

uint32_t ThisThreadId() {
  thread_local uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

const char* const kOpTypeNames[kNumOpTypes] = {
    "complex.Q1",  "complex.Q2",  "complex.Q3",  "complex.Q4",
    "complex.Q5",  "complex.Q6",  "complex.Q7",  "complex.Q8",
    "complex.Q9",  "complex.Q10", "complex.Q11", "complex.Q12",
    "complex.Q13", "complex.Q14", "short.S1",    "short.S2",
    "short.S3",    "short.S4",    "short.S5",    "short.S6",
    "short.S7",    "update.U1",   "update.U2",   "update.U3",
    "update.U4",   "update.U5",   "update.U6",   "update.U7",
    "update.U8",   "driver.sched_lag", "driver.gct_wait",
    "micro.point_read",
};

const char* const kCounterNames[kNumCounters] = {
    "driver.operations_executed", "driver.operations_failed",
    "driver.dependencies_tracked", "driver.gct_dependent_waits",
    "driver.short_read_walk_steps",
};

const char* const kGaugeNames[kNumGauges] = {
    "epoch.advances",
    "epoch.retired_total",
    "epoch.freed_total",
    "epoch.pending",
    "store.person_slots_used",
    "store.person_slots_allocated",
    "store.forum_slots_used",
    "store.forum_slots_allocated",
    "store.message_slots_used",
    "store.message_slots_allocated",
};

}  // namespace

const char* OpTypeName(OpType op) {
  size_t i = static_cast<size_t>(op);
  return i < kNumOpTypes ? kOpTypeNames[i] : "unknown";
}

const char* CounterName(Counter c) {
  size_t i = static_cast<size_t>(c);
  return i < kNumCounters ? kCounterNames[i] : "unknown";
}

const char* GaugeName(Gauge g) {
  size_t i = static_cast<size_t>(g);
  return i < kNumGauges ? kGaugeNames[i] : "unknown";
}

double OpSnapshot::PercentileUs(double p) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Nearest-rank on the merged bucket counts: the smallest bucket whose
  // cumulative count covers the rank.
  uint64_t rank = static_cast<uint64_t>(p / 100.0 *
                                        static_cast<double>(count - 1));
  uint64_t cumulative = 0;
  for (size_t b = 0; b < LogBuckets::kNumBuckets; ++b) {
    cumulative += buckets[b];
    if (cumulative > rank) {
      return static_cast<double>(LogBuckets::BucketMid(b)) / 1000.0;
    }
  }
  return static_cast<double>(max_ns) / 1000.0;  // Unreachable when counts add up.
}

double MetricsSnapshot::SumMicros(size_t begin, size_t end) const {
  double total = 0.0;
  for (size_t i = begin; i < end && i < kNumOpTypes; ++i) {
    total += static_cast<double>(ops[i].sum_ns) / 1000.0;
  }
  return total;
}

uint64_t MetricsSnapshot::CountInRange(size_t begin, size_t end) const {
  uint64_t total = 0;
  for (size_t i = begin; i < end && i < kNumOpTypes; ++i) {
    total += ops[i].count;
  }
  return total;
}

MetricsRegistry::~MetricsRegistry() {
  for (std::atomic<Shard*>& slot : shards_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

MetricsRegistry::Shard& MetricsRegistry::LocalShard() {
  size_t idx = ThisThreadId() & (kMaxShards - 1);
  Shard* shard = shards_[idx].load(std::memory_order_acquire);
  if (shard == nullptr) {
    Shard* fresh = new Shard();
    if (shards_[idx].compare_exchange_strong(shard, fresh,
                                             std::memory_order_acq_rel)) {
      shard = fresh;
    } else {
      delete fresh;  // Another thread on the same shard index won.
    }
  }
  return *shard;
}

void MetricsRegistry::RecordLatencyNs(OpType op, uint64_t ns) {
  // Checked by tools/snb_invariants: the record paths advertise
  // lock-freedom (metrics.h), so their closures must never reach a
  // util::Mutex or futex-backed wait.
  SNB_INVARIANT_ROOT("lockfree");
  OpCell& cell = LocalShard().ops[static_cast<size_t>(op)];
  cell.count.fetch_add(1, std::memory_order_relaxed);
  cell.sum_ns.fetch_add(ns, std::memory_order_relaxed);
  cell.buckets[LogBuckets::BucketFor(ns)].fetch_add(
      1, std::memory_order_relaxed);
  uint64_t seen = cell.min_ns.load(std::memory_order_relaxed);
  while (ns < seen && !cell.min_ns.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }
  seen = cell.max_ns.load(std::memory_order_relaxed);
  while (ns > seen && !cell.max_ns.compare_exchange_weak(
                          seen, ns, std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::AddCounter(Counter c, uint64_t delta) {
  SNB_INVARIANT_ROOT("lockfree");
  LocalShard().counters[static_cast<size_t>(c)].fetch_add(
      delta, std::memory_order_relaxed);
}

void MetricsRegistry::RecordHwCounts(OpType op, const perf::HwCounts& delta) {
  SNB_INVARIANT_ROOT("lockfree");
  if (!delta.valid()) return;
  OpCell& cell = LocalShard().ops[static_cast<size_t>(op)];
  for (size_t m = 0; m < perf::kNumHwMetrics; ++m) {
    if (delta.mask & (1u << m)) {
      cell.hw[m].fetch_add(delta.v[m], std::memory_order_relaxed);
    }
  }
  cell.hw_mask.fetch_or(delta.mask, std::memory_order_relaxed);
  cell.hw_samples.fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  for (OpSnapshot& op : snap.ops) op.min_ns = ~uint64_t{0};
  for (const std::atomic<Shard*>& slot : shards_) {
    const Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    for (size_t i = 0; i < kNumOpTypes; ++i) {
      const OpCell& cell = shard->ops[i];
      OpSnapshot& out = snap.ops[i];
      out.count += cell.count.load(std::memory_order_relaxed);
      out.sum_ns += cell.sum_ns.load(std::memory_order_relaxed);
      uint64_t lo = cell.min_ns.load(std::memory_order_relaxed);
      uint64_t hi = cell.max_ns.load(std::memory_order_relaxed);
      if (lo < out.min_ns) out.min_ns = lo;
      if (hi > out.max_ns) out.max_ns = hi;
      perf::HwCounts shard_hw;
      shard_hw.mask = cell.hw_mask.load(std::memory_order_relaxed);
      for (size_t m = 0; m < perf::kNumHwMetrics; ++m) {
        shard_hw.v[m] = cell.hw[m].load(std::memory_order_relaxed);
      }
      out.hw.Accumulate(shard_hw);
      out.hw_samples += cell.hw_samples.load(std::memory_order_relaxed);
      for (size_t b = 0; b < LogBuckets::kNumBuckets; ++b) {
        out.buckets[b] += cell.buckets[b].load(std::memory_order_relaxed);
      }
    }
    for (size_t c = 0; c < kNumCounters; ++c) {
      snap.counters[c] += shard->counters[c].load(std::memory_order_relaxed);
    }
  }
  for (OpSnapshot& op : snap.ops) {
    if (op.count == 0) op.min_ns = 0;  // No samples: sentinel back to zero.
  }
  for (size_t g = 0; g < kNumGauges; ++g) {
    snap.gauges[g] = gauges_[g].load(std::memory_order_relaxed);
  }
  return snap;
}

}  // namespace snb::obs
