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
//          timestamp <= T_GC has completed. Dependent operations wait on
//          T_GC before executing.
//
// Streams that currently have no dependency operation in flight advance
// their T_LI with MarkTime() (time markers), so T_GC never stalls behind an
// idle stream. Timestamps must be added in monotonically increasing order
// per stream (update streams are due-time sorted) but may complete in any
// order.
//
// Publication protocol. Only the thread that drives a stream calls its
// LDS's Initiate, Complete and MarkTime; the IT/CT sets behind them are
// that thread's alone and take no lock. After every such call the owner
// stores the stream's T_LI and T_LC into two atomics (seq_cst), and nothing
// else ever writes them. TLI(), TLC(), TGI() and TGC() read only those
// atomics, so any thread may call them without a lock. Both values only
// grow, so a T_GC once read stays a valid lower bound forever.
//
// Wake-ups. A waiter takes the GDS mutex, increments the waiter count
// (seq_cst) and only then reads T_GC; it sleeps on the condition variable
// while T_GC is short. The owner of a stream publishes its watermarks
// first and then loads the waiter count (seq_cst); it returns at once when
// the count is zero and otherwise takes the mutex and wakes every waiter.
// In the single order of seq_cst operations either the waiter's increment
// comes first, so the owner sees a waiter and wakes it (the mutex keeps the
// wake-up from slipping between the waiter's test and its sleep), or the
// owner's store comes first, so the waiter's T_GC read sees the progress
// and it never sleeps. No wake-up is lost.
#ifndef SNB_DRIVER_DEPENDENCY_SERVICES_H_
#define SNB_DRIVER_DEPENDENCY_SERVICES_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "util/datetime.h"
#include "util/mutex.h"

namespace snb::driver {

using util::TimestampMs;

inline constexpr TimestampMs kTimeMax =
    std::numeric_limits<TimestampMs>::max();

class GlobalDependencyService;

/// Per-stream dependency bookkeeping. One writer: only the thread that
/// drives the stream calls Initiate, Complete and MarkTime. Any thread may
/// read TLI() and TLC().
class LocalDependencyService {
 public:
  LocalDependencyService() = default;
  LocalDependencyService(const LocalDependencyService&) = delete;
  LocalDependencyService& operator=(const LocalDependencyService&) = delete;

  /// Registers a dependency operation about to execute. `t` must be >= every
  /// previously initiated or marked time; a smaller one aborts the process.
  void Initiate(TimestampMs t);

  /// Marks a previously initiated dependency operation as completed. A time
  /// with no uncompleted Initiate aborts the process.
  void Complete(TimestampMs t);

  /// Advances T_LI for streams executing non-dependency operations: promises
  /// that no dependency with timestamp < t will ever be initiated.
  void MarkTime(TimestampMs t);

  /// Lowest in-flight initiated time, or the last known floor when IT is
  /// empty. Monotone.
  TimestampMs TLI() const { return tli_.load(); }

  /// Highest time t such that every dependency of this stream with
  /// timestamp <= t has completed. Monotone.
  TimestampMs TLC() const { return tlc_.load(); }

 private:
  friend class GlobalDependencyService;

  /// Folds durable completions into the watermark, publishes T_LI and T_LC
  /// and wakes waiters of the global service.
  void Publish();

  // Owner-thread state; no other thread touches it.
  std::multiset<TimestampMs> initiated_;
  std::multiset<TimestampMs> completed_;
  // Last marker / last initiated time.
  TimestampMs floor_ = 0;
  // Highest durable completion: every time at or below it has completed.
  TimestampMs completed_high_ = 0;
  // Set once at registration (AddStream), before execution starts.
  GlobalDependencyService* gds_ = nullptr;  // Notified on progress.

  // The published watermarks: written only by the owner, read by anyone.
  // They sit on a cache line of their own, apart from the owner's state
  // above and from every other stream's watermarks.
  alignas(64) std::atomic<TimestampMs> tli_{0};
  std::atomic<TimestampMs> tlc_{0};
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

  /// Global Initiation Time: min over streams of T_LI. Lock-free.
  TimestampMs TGI() const;

  /// Global Completion Time: every operation from all streams with
  /// timestamp <= TGC has completed. Lock-free and monotone, so a value
  /// once read stays a valid lower bound.
  TimestampMs TGC() const;

  /// Blocks until TGC() >= t.
  void WaitUntilCompleted(TimestampMs t);

  /// Wakes waiters; called by an LDS after it publishes progress. Returns
  /// without a lock while no thread waits.
  void NotifyProgress();

 private:
  mutable util::Mutex mu_;
  // Waits on the MutexLock itself (BasicLockable) so the capability stays
  // analysable across the wait.
  std::condition_variable_any progress_;
  // Threads inside WaitUntilCompleted. Changed only under mu_, read
  // without it by NotifyProgress (see the wake-up protocol above).
  std::atomic<uint32_t> waiters_{0};
  // Mutated only during the registration phase (AddStream, under mu_,
  // before execution starts); TGI/TGC read it lock-free afterwards.
  // Deliberately not SNB_GUARDED_BY: the registration-then-frozen protocol
  // is the synchronisation, not the mutex.
  std::vector<std::unique_ptr<LocalDependencyService>> streams_;
};

}  // namespace snb::driver

#endif  // SNB_DRIVER_DEPENDENCY_SERVICES_H_
