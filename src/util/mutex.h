// Annotated mutex types for Clang thread-safety analysis.
//
// `std::mutex` / `std::shared_mutex` carry no capability attributes, so
// the analysis cannot see what they protect. These thin wrappers (zero
// overhead: one member, all methods inline) attach the attributes from
// util/thread_annotations.h; scripts/lint.sh bans the raw std types
// everywhere outside this header so that every lock in the tree is
// analysable.
//
// Usage mirrors the std types it replaces:
//
//   Mutex mu_;
//   int value_ SNB_GUARDED_BY(mu_);
//   void Touch() { MutexLock lock(&mu_); ++value_; }
//
// Condition variables: use `std::condition_variable_any` and wait on the
// `MutexLock` itself (it is BasicLockable). The capability is held before
// and after the wait — exactly what the analysis assumes — and released
// only inside the wait, which the analysis does not model (and need not:
// no guarded access happens inside the wait).
#ifndef SNB_UTIL_MUTEX_H_
#define SNB_UTIL_MUTEX_H_

#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.h"

namespace snb::util {

/// Annotated exclusive mutex.
class SNB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SNB_ACQUIRE() { mu_.lock(); }
  void Unlock() SNB_RELEASE() { mu_.unlock(); }
  bool TryLock() SNB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Annotated shared (reader/writer) mutex.
class SNB_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() SNB_ACQUIRE() { mu_.lock(); }
  void Unlock() SNB_RELEASE() { mu_.unlock(); }
  void LockShared() SNB_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() SNB_RELEASE_SHARED() { mu_.unlock_shared(); }

  /// The wrapped std::shared_mutex, for movable std::shared_lock guards
  /// (e.g. a read guard returned by value). Accesses made under such a
  /// lock are invisible to the analysis; keep them to members that are
  /// not SNB_GUARDED_BY.
  std::shared_mutex& native() { return mu_; }

 private:
  std::shared_mutex mu_;
};

/// Movable exclusive lock over SharedMutex::native(), for an exclusive
/// guard returned by value (store::FrozenReadGuard): the counterpart of a
/// std::shared_lock over native(). The analysis does not see it either, so
/// keep the accesses made under it to members that are not SNB_GUARDED_BY.
using MovableWriterLock = std::unique_lock<std::shared_mutex>;

/// RAII exclusive lock over Mutex. Also BasicLockable so that
/// std::condition_variable_any can wait on it directly.
class SNB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) SNB_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() SNB_RELEASE() { mu_->Unlock(); }

  // BasicLockable, for condition_variable_any::wait. The capability state
  // is unchanged across a wait (held on entry, held on return).
  void lock() SNB_ACQUIRE() { mu_->Lock(); }
  void unlock() SNB_RELEASE() { mu_->Unlock(); }

 private:
  Mutex* const mu_;
};

/// RAII exclusive lock over SharedMutex (writer side).
class SNB_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) SNB_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;
  ~WriterMutexLock() SNB_RELEASE() { mu_->Unlock(); }

 private:
  SharedMutex* const mu_;
};

/// RAII shared lock over SharedMutex (reader side).
class SNB_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) SNB_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->LockShared();
  }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;
  ~ReaderMutexLock() SNB_RELEASE() { mu_->UnlockShared(); }

 private:
  SharedMutex* const mu_;
};

}  // namespace snb::util

#endif  // SNB_UTIL_MUTEX_H_
