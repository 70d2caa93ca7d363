// Local / Global Dependency Services (paper section 4.2, Figure 7).
//
// Each parallel stream owns a LocalDependencyService tracking the Initiated
// Times (IT) and Completed Times (CT) of the *dependency* operations it
// executes, and exposes
//   T_LI — Local Initiation Time: no operation with a smaller timestamp will
//          ever start in this stream (monotone),
//   T_LC — Local Completion Time: every operation of this stream at or
//          before it has completed (monotone).
// The GlobalDependencyService aggregates all LDS instances into
//   T_GI = min over streams of T_LI,
//   T_GC — Global Completion Time: every operation from every stream with
//          timestamp <= T_GC has completed. Dependent operations spin-wait
//          on T_GC before executing.
//
// Streams that currently have no dependency operation in flight advance
// their T_LI with MarkTime() (time markers), so T_GC never stalls behind an
// idle stream. Timestamps must be added in monotonically increasing order
// per stream (update streams are due-time sorted) but may complete in any
// order.
#ifndef SNB_DRIVER_DEPENDENCY_SERVICES_H_
#define SNB_DRIVER_DEPENDENCY_SERVICES_H_

#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "util/datetime.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace snb::driver {

using util::TimestampMs;

inline constexpr TimestampMs kTimeMax =
    std::numeric_limits<TimestampMs>::max();

class GlobalDependencyService;

/// Per-stream dependency bookkeeping. Thread-safe; one writer stream plus
/// concurrent readers.
class LocalDependencyService {
 public:
  LocalDependencyService() = default;
  LocalDependencyService(const LocalDependencyService&) = delete;
  LocalDependencyService& operator=(const LocalDependencyService&) = delete;

  /// Registers a dependency operation about to execute. `t` must be >= every
  /// previously initiated or marked time.
  void Initiate(TimestampMs t);

  /// Marks a previously initiated dependency operation as completed.
  void Complete(TimestampMs t);

  /// Advances T_LI for streams executing non-dependency operations: promises
  /// that no dependency with timestamp < t will ever be initiated.
  void MarkTime(TimestampMs t);

  /// Lowest in-flight initiated time, or the last known floor when IT is
  /// empty. Monotone.
  TimestampMs TLI() const;

  /// Highest time t such that every dependency of this stream with
  /// timestamp <= t has completed. Monotone.
  TimestampMs TLC() const;

 private:
  friend class GlobalDependencyService;

  /// Folds durable completions into the cached watermark; mu_ held.
  void FoldLocked() SNB_REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::multiset<TimestampMs> initiated_ SNB_GUARDED_BY(mu_);
  std::multiset<TimestampMs> completed_ SNB_GUARDED_BY(mu_);
  // Last marker / last initiated time.
  TimestampMs floor_ SNB_GUARDED_BY(mu_) = 0;
  // Cached TLC.
  TimestampMs completed_high_ SNB_GUARDED_BY(mu_) = 0;
  // Set once at registration (AddStream), before execution starts; read
  // without mu_ afterwards — deliberately not SNB_GUARDED_BY.
  GlobalDependencyService* gds_ = nullptr;  // Notified on progress.
};

/// Aggregates the stream-local services; dependent operations wait on T_GC.
/// T_GI/T_GC are exposed exactly as in Figure 7.
class GlobalDependencyService {
 public:
  GlobalDependencyService() = default;
  GlobalDependencyService(const GlobalDependencyService&) = delete;
  GlobalDependencyService& operator=(const GlobalDependencyService&) = delete;

  /// Creates and registers a new stream-local service. All registrations
  /// must happen before execution starts.
  LocalDependencyService* AddStream();

  /// Global Initiation Time: min over streams of T_LI.
  TimestampMs TGI() const;

  /// Global Completion Time: every operation from all streams with
  /// timestamp <= TGC has completed.
  TimestampMs TGC() const;

  /// Blocks until TGC() >= t.
  void WaitUntilCompleted(TimestampMs t);

  /// Non-blocking probe: true iff TGC() >= t already. TGC is monotone, so
  /// a true answer stays true; callers can skip WaitUntilCompleted (and its
  /// mutex) for dependencies that are already satisfied.
  bool CompletedThrough(TimestampMs t) const { return TGC() >= t; }

  /// Wakes waiters; called by LDS on every progress event.
  void NotifyProgress();

 private:
  mutable util::Mutex mu_;
  // Waits on the MutexLock itself (BasicLockable) so the capability stays
  // analysable across the wait.
  std::condition_variable_any progress_;
  // Mutated only during the registration phase (AddStream, under mu_,
  // before execution starts); TGI/TGC read it lock-free afterwards.
  // Deliberately not SNB_GUARDED_BY: the registration-then-frozen protocol
  // is the synchronisation, not the mutex.
  std::vector<std::unique_ptr<LocalDependencyService>> streams_;
};

}  // namespace snb::driver

#endif  // SNB_DRIVER_DEPENDENCY_SERVICES_H_
