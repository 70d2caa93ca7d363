#include "util/epoch.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

namespace snb::util {

/// The calling thread's slot, claimed on its first pin, and how deep its
/// pins nest. The destructor returns the slot at thread exit; the manager
/// is leaked, so it is still alive then.
struct EpochManager::ThreadState {
  Slot* slot = nullptr;
  uint32_t nest = 0;

  ~ThreadState() {
    if (slot == nullptr) return;
    // A thread exiting inside a critical section would be a bug elsewhere;
    // clear the pin regardless so reclamation is never wedged forever.
    slot->epoch.store(0, std::memory_order_release);
    slot->claimed.store(0, std::memory_order_release);
  }
};

thread_local EpochManager::ThreadState EpochManager::this_thread_;

EpochManager& EpochManager::Global() {
  static EpochManager* instance = new EpochManager();  // Intentional leak.
  return *instance;
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

void EpochManager::Enter() {
  ThreadState& self = this_thread_;
  if (self.nest++ > 0) return;
  if (self.slot == nullptr) self.slot = ClaimSlot();
  // Publish the epoch we observed, then re-check: if the global moved while
  // we were publishing, catch up so reclamation is not stalled by a pin
  // that is stale from birth. (A stale pin is safe — see header — this
  // loop is a liveness optimisation, and it terminates because advances
  // require *this* slot to catch up once pinned.)
  uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    self.slot->epoch.store(e, std::memory_order_seq_cst);
    uint64_t current = global_epoch_.load(std::memory_order_seq_cst);
    if (current == e) break;
    e = current;
  }
}

void EpochManager::Exit() {
  ThreadState& self = this_thread_;
  if (self.nest == 0) {
    std::fprintf(stderr, "EpochManager::Exit without matching Enter\n");
    std::abort();
  }
  if (--self.nest > 0) return;
  self.slot->epoch.store(0, std::memory_order_release);
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
