// Epoch-based reclamation (EBR) for lock-free snapshot reads.
//
// The store's read path must scale with driver threads (paper section 4.2:
// the benchmark is only meaningful when the SUT sustains the accelerated
// stream). A global reader-writer lock serializes every query on one cache
// line; instead, readers announce themselves in per-thread epoch slots on
// separate cache lines and writers publish new versions of data structures
// with atomic pointer stores, deferring frees until no reader can still
// hold the old version.
//
// Scheme (classic three-epoch EBR, Fraser 2004 / Keir's scheme as used by
// crossbeam and many kernels):
//   * A global epoch counter advances monotonically.
//   * A reader pins the current epoch in its slot for the duration of a
//     critical section (an `EpochPin`); 0 means quiescent. Pinning touches
//     only a thread-private cache line — no shared write, which is what
//     removes the reader-side scalability ceiling.
//   * A writer that unlinks an object (replaces its published pointer)
//     retires it under the current epoch. The global epoch can advance from
//     E to E+1 only when every pinned slot equals E; garbage retired in
//     epoch R is freed once the global epoch reaches R+2, because by then
//     every reader that could have loaded the old pointer has unpinned.
//
// Safety argument for the stale-pin race (reader loads the global epoch,
// stalls, then publishes an old value): a pin that lags the global epoch
// only *blocks advancement longer* — frees require two further advances
// past the retire epoch, and each advance requires every pinned slot to
// have caught up — so staleness delays reclamation but never permits a
// premature free.
//
// Pin cost: the pin must be ordered before the critical section's pointer
// loads from the *writer's* point of view. An outermost pin therefore
// stores its epoch seq_cst and re-checks the global epoch seq_cst (one full
// fence); the writer's slot scan and its advance are seq_cst too, so in
// the single total order either the scan sees the pin, or the pin's
// re-check sees the advance and with it every unlink that preceded it.
// Nested pins only bump a thread-local counter.
//
// There is one epoch domain per process, `EpochManager::Global()`. A thread
// claims a slot on its first pin and keeps it, with its pin nesting count,
// until it exits; the slot then returns to the pool, so thread churn does
// not exhaust kMaxThreads.
//
// The pin is also a *capability token* (see DESIGN.md "Static analysis &
// concurrency discipline"): `EpochPin` cannot be default-constructed or
// copied, only obtained from `EpochManager::pin()`, and every snapshot-read
// entry point of the store takes a `const store::ReadGuard&`, which holds
// one. "Read without a pin" is therefore a compile error, not a latent
// use-after-reclaim.
//
// Writers are expected to be externally serialized per data structure
// (the store's write stripes serialize the writers of each list); several
// writers retire at once, so Retire/TryReclaim are guarded by an internal
// mutex.
#ifndef SNB_UTIL_EPOCH_H_
#define SNB_UTIL_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace snb::util {

class EpochPin;

class EpochManager {
 public:
  /// Maximum concurrently registered reader threads.
  static constexpr size_t kMaxThreads = 256;

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;
  /// The one instance is leaked, so thread-exit slot release never races
  /// its destruction.
  ~EpochManager() = delete;

  /// The process's one epoch domain.
  static EpochManager& Global();

  // ---- Reader side ------------------------------------------------------

  /// Pins the current epoch for this thread and returns the capability
  /// token proving it. Nestable; only the outermost pin touches the slot.
  /// This is the ONLY way to obtain an EpochPin.
  EpochPin pin();

  // ---- Writer side ------------------------------------------------------

  /// Defers `deleter(p)` until no reader pinned at or before the current
  /// epoch can still reference `p`. The caller must already have unlinked
  /// `p` from every published location.
  void Retire(void* p, void (*deleter)(void*)) SNB_EXCLUDES(retire_mu_);

  template <typename T>
  void Retire(T* p) {
    Retire(static_cast<void*>(p),
           [](void* q) { delete static_cast<T*>(q); });
  }

  /// Attempts one epoch advance and frees every object whose retire epoch
  /// is two or more advances old. Cheap when nothing is reclaimable.
  /// Returns the number of objects freed.
  size_t TryReclaim() SNB_EXCLUDES(retire_mu_);

  /// Reclaims until the limbo list is empty. Spins on TryReclaim, so the
  /// caller must guarantee that no thread stays pinned indefinitely (and
  /// must not itself hold a pin). Test/shutdown helper.
  void DrainForTesting() SNB_EXCLUDES(retire_mu_);

  uint64_t epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }
  /// Objects retired but not yet freed.
  size_t pending() const SNB_EXCLUDES(retire_mu_);

  /// Cumulative reclamation activity since process start. `pending` is the
  /// instantaneous retired-but-unfreed backlog (== retired - freed).
  struct EpochStats {
    uint64_t advances = 0;
    uint64_t retired = 0;
    uint64_t freed = 0;
    uint64_t pending = 0;
  };
  EpochStats stats() const;

 private:
  friend class EpochPin;

  struct alignas(64) Slot {
    /// Epoch the owning thread is pinned at; 0 = quiescent.
    std::atomic<uint64_t> epoch{0};
    /// Non-zero when a live thread owns this slot.
    std::atomic<uint32_t> claimed{0};
  };

  struct Garbage {
    void* ptr;
    void (*deleter)(void*);
    uint64_t retire_epoch;
  };

  /// This thread's slot and pin nesting count (epoch.cc).
  struct ThreadState;
  static thread_local ThreadState this_thread_;

  EpochManager() = default;

  /// Reader-side slot transitions; private so that pins are the only
  /// entry point into a critical section (EpochPin calls Exit).
  void Enter();
  static void Exit();

  Slot* ClaimSlot();
  /// Advance + free; caller holds retire_mu_.
  size_t ReclaimLocked() SNB_REQUIRES(retire_mu_);

  /// Epochs start at 1 so that 0 can mean "quiescent" in slots.
  std::atomic<uint64_t> global_epoch_{1};
  /// Cumulative stats(); relaxed — observability only, never synchronizes.
  std::atomic<uint64_t> advances_{0};
  std::atomic<uint64_t> retired_total_{0};
  std::atomic<uint64_t> freed_total_{0};
  Slot slots_[kMaxThreads];

  mutable Mutex retire_mu_;
  /// FIFO: retire epochs are non-decreasing, so reclaimable entries form a
  /// prefix.
  std::deque<Garbage> garbage_ SNB_GUARDED_BY(retire_mu_);
};

/// Capability token for an epoch critical section. Holding a live
/// `EpochPin` proves the calling thread has its epoch slot pinned, so
/// RCU-published pointers it loads stay valid. Move-only, and constructible
/// ONLY via `EpochManager::pin()` — an API that demands `const EpochPin&`
/// is therefore statically unreachable from unpinned code (the
/// tests/negative cases prove this fails to compile).
///
/// A moved-from pin is disengaged (its destructor is a no-op); the moved-to
/// pin carries the capability. Pins nest: a thread may hold several, and
/// only the outermost Enter/Exit pair touches the epoch slot.
class EpochPin {
 public:
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;
  EpochPin(EpochPin&& other) noexcept
      : engaged_(std::exchange(other.engaged_, false)) {}
  EpochPin& operator=(EpochPin&& other) noexcept {
    if (this != &other) {
      if (engaged_) EpochManager::Exit();
      engaged_ = std::exchange(other.engaged_, false);
    }
    return *this;
  }
  ~EpochPin() {
    if (engaged_) EpochManager::Exit();
  }

  bool engaged() const { return engaged_; }

 private:
  friend class EpochManager;
  explicit EpochPin(bool engaged) : engaged_(engaged) {}

  bool engaged_;
};

inline EpochPin EpochManager::pin() {
  Enter();
  return EpochPin(true);
}

}  // namespace snb::util

// The token is spelled `snb::EpochPin` at store API boundaries.
namespace snb {
using util::EpochPin;
}  // namespace snb

#endif  // SNB_UTIL_EPOCH_H_
