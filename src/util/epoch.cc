#include "util/epoch.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#if defined(__linux__)
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#if defined(__SANITIZE_THREAD__)
#define SNB_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SNB_TSAN 1
#endif
#endif

namespace snb::util {
namespace {

/// Full memory barrier on every thread of the process (expedited
/// membarrier). Only called when DetectAsymmetricPins() succeeded, so the
/// command is known to be registered and supported.
inline void MembarrierAllThreads() {
#if defined(__linux__)
  syscall(SYS_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0);
#endif
}

/// Per-thread slot bindings. A thread may use a handful of managers (the
/// process-wide one plus test-local instances); bindings are found by
/// linear scan. Non-global managers must outlive every thread that ever
/// entered them — the Global() instance is leaked for exactly this reason.
struct Binding {
  EpochManager* manager = nullptr;
  void* slot = nullptr;
  uint32_t nest = 0;
};

struct ThreadEpochState {
  // A thread may bind Global() plus a handful of test-local managers;
  // bindings are never released before thread exit, so the cap must cover
  // every manager a thread ever entered, not the working set.
  static constexpr int kMaxBindings = 32;
  Binding bindings[kMaxBindings];

  ~ThreadEpochState() {
    for (Binding& b : bindings) {
      if (b.manager != nullptr) {
        EpochManager::ReleaseSlotAtThreadExit(b.slot);
      }
    }
  }

  Binding* Find(EpochManager* manager) {
    for (Binding& b : bindings) {
      if (b.manager == manager) return &b;
    }
    return nullptr;
  }

  Binding* Create(EpochManager* manager, void* slot) {
    for (Binding& b : bindings) {
      if (b.manager == nullptr) {
        b.manager = manager;
        b.slot = slot;
        b.nest = 0;
        return &b;
      }
    }
    std::fprintf(stderr,
                 "EpochManager: thread bound to more than %d managers\n",
                 kMaxBindings);
    std::abort();
  }
};

thread_local ThreadEpochState tls_epoch_state;

}  // namespace

EpochManager& EpochManager::Global() {
  static EpochManager* instance = new EpochManager();  // Intentional leak.
  return *instance;
}

EpochManager::~EpochManager() {
  // Caller guarantees quiescence; free whatever is still in limbo.
  MutexLock lock(&retire_mu_);
  for (Garbage& g : garbage_) g.deleter(g.ptr);
  garbage_.clear();
}

EpochManager::Slot* EpochManager::ClaimSlot() {
  for (Slot& slot : slots_) {
    uint32_t expected = 0;
    if (slot.claimed.compare_exchange_strong(expected, 1,
                                             std::memory_order_acq_rel)) {
      return &slot;
    }
  }
  std::fprintf(stderr, "EpochManager: more than %zu concurrent threads\n",
               kMaxThreads);
  std::abort();
}

bool EpochManager::DetectAsymmetricPins() {
#if defined(__linux__) && !defined(SNB_TSAN)
  long supported = syscall(SYS_membarrier, MEMBARRIER_CMD_QUERY, 0, 0);
  if (supported < 0 ||
      (supported & MEMBARRIER_CMD_PRIVATE_EXPEDITED) == 0) {
    return false;
  }
  return syscall(SYS_membarrier, MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED,
                 0, 0) == 0;
#else
  // TSan cannot model IPI-induced ordering; keep the seq_cst pins it can
  // verify. Non-Linux likewise falls back.
  return false;
#endif
}

void EpochManager::Enter() {
  Binding* binding = tls_epoch_state.Find(this);
  if (binding == nullptr) {
    binding = tls_epoch_state.Create(this, ClaimSlot());
  }
  if (binding->nest++ > 0) return;
  Slot* slot = static_cast<Slot*>(binding->slot);
  // Publish the epoch we observed, then re-check: if the global moved while
  // we were publishing, catch up so reclamation is not stalled by a pin
  // that is stale from birth. (A stale pin is safe — see header — this
  // loop is a liveness optimisation, and it terminates because advances
  // require *this* slot to catch up once pinned.)
  if (asymmetric_pins_) {
    // Writer-side membarrier makes the relaxed pin store visible to the
    // slot scan; the acquire re-check orders this section's pointer loads
    // after every unlink that preceded the epoch we end up pinned at.
    uint64_t e = global_epoch_.load(std::memory_order_acquire);
    for (;;) {
      slot->epoch.store(e, std::memory_order_relaxed);
      std::atomic_signal_fence(std::memory_order_seq_cst);
      uint64_t current = global_epoch_.load(std::memory_order_acquire);
      if (current == e) break;
      e = current;
    }
    return;
  }
  uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slot->epoch.store(e, std::memory_order_seq_cst);
    uint64_t current = global_epoch_.load(std::memory_order_seq_cst);
    if (current == e) break;
    e = current;
  }
}

void EpochManager::Exit() {
  Binding* binding = tls_epoch_state.Find(this);
  if (binding == nullptr || binding->nest == 0) {
    std::fprintf(stderr, "EpochManager::Exit without matching Enter\n");
    std::abort();
  }
  if (--binding->nest > 0) return;
  static_cast<Slot*>(binding->slot)->epoch.store(0,
                                                 std::memory_order_release);
}

void EpochManager::Retire(void* p, void (*deleter)(void*)) {
  constexpr size_t kReclaimThreshold = 64;
  MutexLock lock(&retire_mu_);
  garbage_.push_back(
      {p, deleter, global_epoch_.load(std::memory_order_seq_cst)});
  retired_total_.fetch_add(1, std::memory_order_relaxed);
  if (garbage_.size() >= kReclaimThreshold) ReclaimLocked();
}

size_t EpochManager::TryReclaim() {
  MutexLock lock(&retire_mu_);
  return ReclaimLocked();
}

size_t EpochManager::ReclaimLocked() {
  // Asymmetric mode: flush every reader's in-flight pin store before the
  // scan (the pairing fence for the relaxed stores in Enter), so a pin
  // issued before this point cannot be missed below.
  if (asymmetric_pins_) MembarrierAllThreads();
  uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  bool can_advance = true;
  for (const Slot& slot : slots_) {
    uint64_t pinned = slot.epoch.load(std::memory_order_seq_cst);
    if (pinned != 0 && pinned != e) {
      can_advance = false;
      break;
    }
  }
  if (can_advance) {
    global_epoch_.store(e + 1, std::memory_order_seq_cst);
    e = e + 1;
    advances_.fetch_add(1, std::memory_order_relaxed);
    // Make the advance globally visible before freeing anything under the
    // new epoch: a reader pinning concurrently re-checks the global with
    // an acquire load and so observes every unlink older than the epoch
    // it settles on.
    if (asymmetric_pins_) MembarrierAllThreads();
  }
  size_t freed = 0;
  while (!garbage_.empty() && garbage_.front().retire_epoch + 2 <= e) {
    Garbage& g = garbage_.front();
    g.deleter(g.ptr);
    garbage_.pop_front();
    ++freed;
  }
  freed_total_.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

void EpochManager::DrainForTesting() {
  for (;;) {
    {
      MutexLock lock(&retire_mu_);
      if (garbage_.empty()) return;
      ReclaimLocked();
    }
    std::this_thread::yield();
  }
}

void EpochManager::ReleaseSlotAtThreadExit(void* slot) {
  Slot* s = static_cast<Slot*>(slot);
  // A thread exiting inside a critical section would be a bug elsewhere;
  // clear the pin regardless so reclamation is never wedged forever.
  s->epoch.store(0, std::memory_order_release);
  s->claimed.store(0, std::memory_order_release);
}

size_t EpochManager::pending() const {
  MutexLock lock(&retire_mu_);
  return garbage_.size();
}

EpochManager::EpochStats EpochManager::stats() const {
  EpochStats s;
  s.advances = advances_.load(std::memory_order_relaxed);
  s.retired = retired_total_.load(std::memory_order_relaxed);
  s.freed = freed_total_.load(std::memory_order_relaxed);
  s.pending = pending();
  return s;
}

}  // namespace snb::util
