// Operator-level tracing for the query plans: one span model.
//
// The paper's choke-point discussion (Figure 4: index-nested-loop vs hash
// joins in Q9) is about *where inside a plan* the time goes, which
// end-to-end latencies cannot show. Every complex read runs its plan body
// under TraceSpans, one per phase (join1, join2, join3, sort_limit, ...)
// and never one per row. A span always names its operator to the sampling
// profiler (prof::ScopedOperatorLabel): CPU samples taken inside it fold
// under "opr:<label>". When the calling thread has installed an
// OperatorProfile through ScopedOperatorProfile, the span also times
// itself into that profile's row for its label: invocations, wall time,
// rows and, with live counters, hardware-counter deltas.
//
// With no profile installed a span reads no clock, reads no counter and
// allocates nothing; it costs one thread-local load on top of the
// profiler label. That is the path of every unobserved run. The driver's
// StoreConnector installs one profile per complex read when slow-query
// dossiers are armed, and the Fig. 4 bench installs one per plan. A
// profile belongs to one thread, so its rows are plain (non-atomic).
#ifndef SNB_OBS_TRACE_H_
#define SNB_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/perf_counters.h"
#include "obs/prof.h"

namespace snb::obs {

/// Accumulated cost of one plan operator across invocations. `hw` carries
/// hardware-counter totals for the `hw_invocations` invocations that ran
/// with live counters (0 when the perf backend is no-op/disabled, so
/// wall-clock profiling keeps working counter-less).
struct OperatorStats {
  uint64_t invocations = 0;
  uint64_t time_ns = 0;
  uint64_t rows = 0;
  perf::HwCounts hw;
  uint64_t hw_invocations = 0;

  double TimeMs() const { return static_cast<double>(time_ns) / 1e6; }
};

/// One profile row: a span label and the totals of every span that
/// carried it. The label is a string literal (static storage duration).
struct OperatorRow {
  const char* label = nullptr;
  OperatorStats stats;
};

/// Per-operator totals of the spans opened while this profile was
/// installed: one row per distinct label, in the order the labels were
/// first opened.
class OperatorProfile {
 public:
  const std::vector<OperatorRow>& rows() const { return rows_; }

  /// Moves the rows out; the profile is empty afterwards.
  std::vector<OperatorRow> TakeRows() { return std::exchange(rows_, {}); }

  /// The totals under `label`; nullptr when no span carried it.
  const OperatorStats* Find(std::string_view label) const {
    for (const OperatorRow& row : rows_) {
      if (label == row.label) return &row.stats;
    }
    return nullptr;
  }

 private:
  friend class TraceSpan;

  /// Index of the row for `label`, appended on first sight. Spans keep
  /// the index rather than a pointer: a nested span's new row may
  /// reallocate the vector under an open outer span.
  size_t RowIndex(const char* label) {
    for (size_t i = 0; i < rows_.size(); ++i) {
      // Equal literals from different translation units need not share
      // an address, so fall back to comparing the bytes.
      if (rows_[i].label == label || std::strcmp(rows_[i].label, label) == 0) {
        return i;
      }
    }
    rows_.push_back({label, {}});
    return rows_.size() - 1;
  }

  std::vector<OperatorRow> rows_;
};

namespace internal {
/// The calling thread's installed profile (see ScopedOperatorProfile).
inline constinit thread_local OperatorProfile* tls_operator_profile = nullptr;
}  // namespace internal

/// Installs `profile` as the calling thread's operator profile for the
/// scope: spans opened inside time themselves into it. Nestable — closing
/// restores the profile installed before, like prof::ScopedOpContext. The
/// profile must outlive every span opened while it was installed.
class ScopedOperatorProfile {
 public:
  explicit ScopedOperatorProfile(OperatorProfile* profile)
      : previous_(internal::tls_operator_profile) {
    internal::tls_operator_profile = profile;
  }
  ScopedOperatorProfile(const ScopedOperatorProfile&) = delete;
  ScopedOperatorProfile& operator=(const ScopedOperatorProfile&) = delete;
  ~ScopedOperatorProfile() { internal::tls_operator_profile = previous_; }

 private:
  OperatorProfile* previous_;
};

/// RAII scope of one operator invocation. `label` must be a string
/// literal: it names the operator to the sampling profiler and keys the
/// profile row. Records into the profile installed on this thread when
/// the span opened, if any; when the perf backend is live the row also
/// gains the thread's counter deltas (cycles, instructions, misses), so
/// operator rows carry IPC and miss rates alongside wall time.
class TraceSpan {
 public:
  explicit TraceSpan(const char* label)
      : prof_label_(label), profile_(internal::tls_operator_profile) {
    if (profile_ == nullptr) return;
    row_ = profile_->RowIndex(label);
    start_ = std::chrono::steady_clock::now();
    if (perf::CountersLive()) hw_begin_ = perf::ReadThreadCounters();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Counts rows emitted by this invocation.
  void AddRows(uint64_t n) { rows_ += n; }

  ~TraceSpan() {
    if (profile_ == nullptr) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    OperatorStats& stats = profile_->rows_[row_].stats;
    stats.invocations += 1;
    stats.time_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    stats.rows += rows_;
    if (hw_begin_.valid()) {
      perf::HwCounts delta =
          perf::ReadThreadCounters().DeltaSince(hw_begin_);
      if (delta.valid()) {
        stats.hw.Accumulate(delta);
        stats.hw_invocations += 1;
      }
    }
  }

 private:
  // First member: the label outlives the timing reads on destruction,
  // so samples landing in the epilogue still carry the operator.
  prof::ScopedOperatorLabel prof_label_;
  OperatorProfile* const profile_;
  size_t row_ = 0;
  std::chrono::steady_clock::time_point start_;
  uint64_t rows_ = 0;
  perf::HwCounts hw_begin_;
};

}  // namespace snb::obs

#endif  // SNB_OBS_TRACE_H_
