// Always-on sampling CPU profiler with operator-attributed stacks.
//
// Perf counters (perf_counters.h) say *why* an operator is slow; this
// module says *where the cycles go* across the whole binary. Each
// registered thread owns a POSIX per-thread CPU-time timer
// (timer_create on the thread's CPU clock, SIGEV_THREAD_ID) that
// delivers SIGPROF once per interval of *on-CPU* time. The handler is
// async-signal-safe: it walks the frame-pointer chain out of the
// interrupted ucontext, reads the thread's current attribution context
// (lane name, active OpType, innermost TraceSpan operator label — all
// plain relaxed atomics) and appends one fixed-size sample to the
// thread's lock-free SPSC ring. A background collator drains the rings
// into a folded-stack multiset ("thread:<lane>;op:<name>;opr:<label>;
// frame;...;frame count"), symbolizing program counters via dladdr.
//
// Availability is a runtime property: seccomp may deny timer_create,
// and sanitizer runtimes intercept signal delivery (the profiler
// auto-disables under TSan/ASan at compile time). Enable() probes once
// and installs one of:
//
//   * kTimer — real per-thread timers, samples flow;
//   * kNoop  — probe failed, SNB_PROF_FORCE_NOOP set, or sanitizer
//     build: every Collect() returns an empty profile with the reason
//     in `message`; the run stays valid.
//
// Until Enable() is called the subsystem is kDisabled and every hot
// path (TraceSpan label pushes, driver context scopes) is one relaxed
// load. Accounting is conserved by construction and cross-checked by
// the report validator: captured == attributed + unattributed +
// dropped, where `attributed` samples carried an active operation
// context, `unattributed` ones did not (thread idle between ops), and
// `dropped` hit a full ring. The handler's own cost is measured into
// `self_overhead_ns` and compared against the sampled threads' CPU
// time (task clock): prof_test, scripts/check.sh's driver smoke and CI's
// profiled-run job hold the ratio under 2%.
#ifndef SNB_OBS_PROF_H_
#define SNB_OBS_PROF_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace snb::obs::prof {

// ---- Backend control ------------------------------------------------------

enum class Backend : uint8_t {
  kDisabled = 0,  // Enable() never called: all paths free, no samples.
  kNoop,          // Probe failed / forced: no samples, run is valid.
  kTimer,         // Per-thread POSIX CPU-time timers, samples flow.
};

const char* BackendName(Backend b);

struct EnableOptions {
  /// Skip the probe and install the no-op backend (tests, and honoured
  /// implicitly when the SNB_PROF_FORCE_NOOP environment variable is
  /// set — the CI leg that asserts graceful degradation).
  bool force_noop = false;
};

/// Probes timer_create/SIGPROF on the calling thread and installs the
/// backend; on kTimer, arms a timer for every already-registered thread
/// and starts the collator. Idempotent: calling again re-probes.
Backend Enable(const EnableOptions& options = {});

/// Disarms every thread's timer, stops the collator and returns to
/// kDisabled. Accumulated samples and accounting are cleared. Threads
/// stay registered (their scopes are still open) and re-arm on the
/// next Enable(). Test hook, also safe at shutdown.
void ResetForTest();

Backend ActiveBackend();
/// True when samples are being collected (backend == kTimer).
bool SamplingLive();
/// Human-readable outcome of the last Enable() ("sampling live ...",
/// "timer_create failed: ...", ...). Empty while kDisabled.
std::string BackendMessage();

/// Forces the internal timer_create wrapper to fail with `err` (e.g.
/// EPERM under seccomp, ENOSYS) so tests exercise the real fallback
/// path; 0 restores the real syscall.
void SetTimerCreateErrnoForTest(int err);

/// Number of currently-registered (live) threads. Test hook: asserts
/// that lazily-registered threads really unregister at thread exit, so
/// Collect() never reads the CPU clock of a dead pthread.
size_t LiveRegisteredThreadsForTest();

// ---- Thread registration --------------------------------------------------

/// Registers the calling thread under `lane_name` ("driver.0", "main"):
/// captures its stack bounds for safe frame-pointer walks, allocates
/// its sample ring, and arms its timer when sampling is live.
/// Idempotent per thread (the first lane name wins until unregister).
void RegisterCurrentThread(const char* lane_name);

/// Disarms the calling thread's timer, folds its remaining samples and
/// its CPU-time contribution into the retired accounting, and forgets
/// the registration. Called automatically at thread exit for threads
/// registered via RegisterCurrentThread; explicit scopes call it early.
void UnregisterCurrentThread();

/// RAII registration for threads with a natural scope (driver workers,
/// a profiled main-thread block).
class ScopedThreadRegistration {
 public:
  explicit ScopedThreadRegistration(const char* lane_name) {
    RegisterCurrentThread(lane_name);
  }
  ScopedThreadRegistration(const ScopedThreadRegistration&) = delete;
  ScopedThreadRegistration& operator=(const ScopedThreadRegistration&) =
      delete;
  ~ScopedThreadRegistration() { UnregisterCurrentThread(); }
};

// ---- Attribution context --------------------------------------------------

/// "No active operation" sentinel for the op context (an OpType index
/// otherwise, rendered via obs::OpTypeName).
inline constexpr uint16_t kNoOpContext = 0xffff;

/// Sets the calling thread's active-operation context (an OpType index)
/// for the duration of the scope; samples taken inside count as
/// attributed. No-op on unregistered threads. Nestable (restores the
/// previous context).
class ScopedOpContext {
 public:
  explicit ScopedOpContext(uint16_t op_index);
  ScopedOpContext(const ScopedOpContext&) = delete;
  ScopedOpContext& operator=(const ScopedOpContext&) = delete;
  ~ScopedOpContext();

 private:
  uint16_t previous_ = kNoOpContext;
  bool engaged_ = false;
};

/// Sets the calling thread's innermost operator label ("join1",
/// "sort_limit") for the duration of the scope — the hook TraceSpan
/// uses so plan operators show up as a folded frame. `label` must have
/// static storage duration (the handler copies the pointer, not the
/// bytes). nullptr or an unregistered thread disengages the scope.
class ScopedOperatorLabel {
 public:
  explicit ScopedOperatorLabel(const char* label);
  ScopedOperatorLabel(const ScopedOperatorLabel&) = delete;
  ScopedOperatorLabel& operator=(const ScopedOperatorLabel&) = delete;
  ~ScopedOperatorLabel();

 private:
  const char* previous_ = nullptr;
  bool engaged_ = false;
};

// ---- Collected output -----------------------------------------------------

/// Conserved sample accounting: captured == attributed + unattributed
/// + dropped (cross-checked by the report validator).
struct SampleAccounting {
  uint64_t captured = 0;
  uint64_t attributed = 0;
  uint64_t unattributed = 0;
  uint64_t dropped = 0;
  /// Total measured handler time across all samples.
  uint64_t self_overhead_ns = 0;
  /// CPU time accumulated by registered threads while registered (the
  /// denominator of the self-overhead gate).
  uint64_t task_clock_ns = 0;
  /// Threads ever registered in this profiling session.
  uint32_t threads = 0;
};

/// One folded stack: identical (lane, op, label, frames) samples merge.
struct FoldedStack {
  std::string lane;      // Thread lane ("driver.0").
  std::string op;        // OpTypeName or "" when unattributed.
  std::string op_label;  // Innermost TraceSpan label or "".
  /// Symbolized frames, root first ("snb::exec::..." or "0x...").
  std::vector<std::string> frames;
  uint64_t count = 0;
};

/// A cumulative snapshot of everything sampled since Enable().
struct FoldedProfile {
  Backend backend = Backend::kDisabled;
  std::string message;
  uint32_t interval_us = 0;
  SampleAccounting accounting;
  /// Sorted by rendered key, so equal profiles render byte-identically.
  std::vector<FoldedStack> stacks;
};

/// Drains every ring and returns the cumulative profile. Cheap when
/// sampling is not live (empty profile carrying the backend + message).
FoldedProfile Collect();

/// Renders the canonical collapsed-stack text, one line per stack:
/// "thread:<lane>;op:<op>;opr:<label>;frameRoot;...;frameLeaf <count>"
/// (the op/opr segments are omitted for unattributed samples). The
/// format scripts/profile_view.py and external flamegraph tools eat.
std::string ToFoldedText(const FoldedProfile& profile);

}  // namespace snb::obs::prof

#endif  // SNB_OBS_PROF_H_
