// Hardware-counter profiling via Linux perf_event_open.
//
// Wall-clock profiles (TraceSpan, the Figure 4 reproduction) say where the
// time goes; they cannot say *why* — whether an operator is bound on
// retired work, LLC misses, or branch mispredicts. The in-depth SNB
// benchmarking study (arXiv 1907.07405) shows identical plans diverging by
// orders of magnitude precisely along those micro-architectural lines, so
// this module makes them first-class observables: a per-thread counter
// group (cycles, instructions, LLC load misses, branch misses, task
// clock — a fixed enum like metrics.h, extensible the same way) whose
// deltas can be scoped to any code region and accumulated into the
// operator rows of an installed obs::OperatorProfile (trace.h).
//
// Availability is a runtime property, not a build property: containers and
// CI commonly deny perf_event_open (seccomp default, perf_event_paranoid),
// and a VM may lack a PMU entirely. Enable() therefore *probes* the
// syscall once and installs one of two backends:
//
//   * kLinux — real counter groups, one per thread, opened lazily on
//     first read (counting mode only, no sampling, user-space only so no
//     elevated privilege is needed at perf_event_paranoid <= 2);
//   * kNoop  — every read returns an empty (mask == 0) HwCounts. All
//     downstream consumers (TraceSpan, MetricsRegistry, report.json)
//     render "counters unavailable" instead of fabricating zeros.
//
// Until Enable() is called the subsystem is kDisabled and every path is a
// single relaxed atomic load — instrumented binaries that never opt in
// pay nothing. Partial availability degrades per metric: if e.g. the LLC
// event is unsupported the remaining counters still count, and the mask
// says which values are real. Multiplexed counters (more groups than PMU
// slots) are scaled by time_enabled/time_running at read time.
#ifndef SNB_OBS_PERF_COUNTERS_H_
#define SNB_OBS_PERF_COUNTERS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace snb::obs::perf {

// ---- Metric identity ------------------------------------------------------

/// The counter group attached to every measured thread. Contiguous so
/// counts are arrays; extend by appending (report field names derive from
/// HwMetricName).
enum class HwMetric : uint16_t {
  kCycles = 0,
  kInstructions,
  kLlcLoadMisses,
  kBranchMisses,
  kTaskClockNs,
  kCount,
};
inline constexpr size_t kNumHwMetrics = static_cast<size_t>(HwMetric::kCount);

/// Stable dotted name ("hw.cycles", "hw.llc_load_misses", ...).
const char* HwMetricName(HwMetric m);

// ---- Counter values -------------------------------------------------------

/// A set of counter values plus a validity mask: bit i set means v[i] was
/// actually measured (counter open and scheduled). mask == 0 is the
/// universal "counters unavailable" value the no-op backend returns.
struct HwCounts {
  std::array<uint64_t, kNumHwMetrics> v{};
  uint32_t mask = 0;

  bool valid() const { return mask != 0; }
  bool Has(HwMetric m) const {
    return (mask & (1u << static_cast<uint32_t>(m))) != 0;
  }
  uint64_t Value(HwMetric m) const { return v[static_cast<size_t>(m)]; }

  /// Counter delta (this - earlier), per-metric saturating at 0; the
  /// result's mask is the metrics present in both readings.
  HwCounts DeltaSince(const HwCounts& earlier) const;

  /// Sums `other` into this (per metric; mask becomes the union). An
  /// invalid `other` is skipped entirely, so accumulating across
  /// invocations where some threads lack counters stays meaningful.
  void Accumulate(const HwCounts& other);

  /// Instructions per cycle; 0 when either counter is missing or cycles
  /// is 0.
  double Ipc() const;
  /// misses-per-kilo-instruction helpers for the two miss counters;
  /// 0 when either input is missing.
  double LlcMissesPerKiloInstr() const;
  double BranchMissesPerKiloInstr() const;
};

// ---- Backend control ------------------------------------------------------

enum class Backend : uint8_t {
  kDisabled = 0,  // Enable() never called: all paths free, reads empty.
  kNoop,          // Enable() probed and failed: reads empty, run is valid.
  kLinux,         // Real per-thread perf_event groups.
};

const char* BackendName(Backend b);

struct EnableOptions {
  /// Skip the probe and install the no-op backend (tests, and honoured
  /// implicitly when the SNB_PERF_FORCE_NOOP environment variable is
  /// set — the CI leg that asserts graceful degradation).
  bool force_noop = false;
};

/// Probes perf_event_open and installs the backend. Idempotent: calling
/// again re-probes (tests flip backends around scoped blocks; production
/// callers invoke it once at startup, before worker threads exist).
/// Returns the installed backend; BackendMessage() says why.
Backend Enable(const EnableOptions& options = {});

/// Returns to kDisabled and invalidates every thread's cached counter
/// group (closed lazily on that thread's next read). Test hook.
void ResetForTest();

Backend ActiveBackend();
/// True when real counters are being collected (backend == kLinux).
bool CountersLive();
/// Human-readable outcome of the last Enable() ("counters live",
/// "perf_event_open failed: EACCES ...", ...). Empty while kDisabled.
std::string BackendMessage();

/// Forces the internal perf_event_open wrapper to fail with `err`
/// (e.g. ENOSYS, EACCES) so tests exercise the real fallback path; 0
/// restores the real syscall.
void SetPerfEventOpenErrnoForTest(int err);

// ---- Reading --------------------------------------------------------------

/// Cumulative counts of the calling thread's counter group, opening it on
/// first use. Empty (mask == 0) when the backend is not kLinux or this
/// thread's group failed to open.
HwCounts ReadThreadCounters();

/// RAII-style delta helper: construct at region entry, Delta() at exit.
/// Costs one relaxed load when counters are not live.
class ScopedHwCounts {
 public:
  ScopedHwCounts() {
    if (CountersLive()) begin_ = ReadThreadCounters();
  }
  /// Counters spent since construction; empty when unavailable.
  HwCounts Delta() const {
    if (!begin_.valid()) return HwCounts{};
    return ReadThreadCounters().DeltaSince(begin_);
  }

 private:
  HwCounts begin_;
};

}  // namespace snb::obs::perf

#endif  // SNB_OBS_PERF_COUNTERS_H_
