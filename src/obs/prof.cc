#include "obs/prof.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/invariant_root.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

#if defined(__linux__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#endif

// Sanitizer runtimes intercept signal delivery and instrument the
// handler path, so per-sample signals both distort what TSan/ASan
// verify and violate the runtimes' own signal-safety expectations. The
// profiler compiles to the no-op backend outright under either.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SNB_PROF_UNDER_SANITIZER 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SNB_PROF_UNDER_SANITIZER 1
#endif
#endif

namespace snb::obs::prof {
namespace {

/// Samples a handler invocation can record before truncating the walk.
/// Deep template stacks truncate at the root end; the leaf frames (the
/// ones a flamegraph is read by) always survive.
inline constexpr size_t kMaxFrames = 24;
/// Sampling interval in microseconds of thread CPU time: a prime, so
/// periodic code does not alias the sampling grid. The kernel's CPU-clock
/// tick bounds the effective rate.
inline constexpr uint32_t kIntervalUs = 997;
/// Per-thread ring capacity. At the 997 us CPU interval a fully
/// CPU-bound thread produces ~1000 samples/s, so the collator's 100 ms
/// drain cadence keeps the ring under 3% full.
inline constexpr uint32_t kRingCapacity = 4096;

/// One sample, written by the signal handler (fixed size, no pointers
/// the collator cannot chase: `label` has static storage duration).
struct Sample {
  const char* label;
  uint16_t op;
  uint16_t depth;
  uintptr_t pc[kMaxFrames];
};

std::atomic<Backend> g_backend{Backend::kDisabled};
std::atomic<int> g_forced_errno{0};

/// Guards the registry, the fold map and the collator lifecycle. The
/// signal handler NEVER takes it (it only touches its own thread's ring
/// and relaxed atomics); everything else — registration, draining,
/// Collect(), Enable()/ResetForTest() — serializes here.
util::Mutex g_prof_mu;
/// Guards the human-readable backend message (cold paths only).
util::Mutex g_prof_message_mu;

std::string& MessageStorage() {
  static std::string storage;
  return storage;
}

void SetMessage(const std::string& message) {
  util::MutexLock lock(&g_prof_message_mu);
  MessageStorage() = message;
}

/// Everything the handler writes into, per registered thread. Lives
/// until ResetForTest() — never while its thread could still deliver a
/// late signal — so the handler needs no lifetime handshake beyond the
/// thread-local pointer below.
struct ThreadState {
  // Registration-time constants (read by handler and collator).
  std::string lane;
  uint32_t lane_id = 0;
  pid_t tid = 0;
  pthread_t pthread{};
  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;

  // SPSC ring: the handler is the only producer (it runs on this
  // thread), the collator the only consumer (under g_prof_mu).
  std::unique_ptr<Sample[]> ring{std::make_unique<Sample[]>(kRingCapacity)};
  std::atomic<uint32_t> head{0};
  std::atomic<uint32_t> tail{0};

  // Handler-written accounting.
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> overhead_ns{0};

  // Attribution context: written by this thread's scopes, read by the
  // handler interrupting this thread. Relaxed is enough — writer and
  // reader are the same thread.
  std::atomic<uint16_t> op_context{kNoOpContext};
  std::atomic<const char*> op_label{nullptr};

  // Collator-side state, all under g_prof_mu.
  uint64_t cpu_base_ns SNB_GUARDED_BY(g_prof_mu) = 0;
  bool timer_armed SNB_GUARDED_BY(g_prof_mu) = false;
  bool live SNB_GUARDED_BY(g_prof_mu) = true;
#if defined(__linux__)
  timer_t timer SNB_GUARDED_BY(g_prof_mu){};
#endif
};

/// Fold key: [lane_id, op, label ptr, pc leaf..root]. Pointer-sized
/// slots make the map key a flat byte-comparable vector.
using FoldKey = std::vector<uintptr_t>;

/// Global profiler state. Intentionally leaked (like the metrics
/// registry): the collator thread and late-unregistering threads may
/// touch it during process teardown, after static destructors ran.
struct State {
  std::vector<std::unique_ptr<ThreadState>> all SNB_GUARDED_BY(g_prof_mu);
  std::vector<ThreadState*> registry SNB_GUARDED_BY(g_prof_mu);
  std::vector<std::string> lanes SNB_GUARDED_BY(g_prof_mu);
  std::map<FoldKey, uint64_t> folds SNB_GUARDED_BY(g_prof_mu);
  std::unordered_map<uintptr_t, std::string> symbols
      SNB_GUARDED_BY(g_prof_mu);
  uint64_t attributed SNB_GUARDED_BY(g_prof_mu) = 0;
  uint64_t unattributed SNB_GUARDED_BY(g_prof_mu) = 0;
  uint64_t retired_dropped SNB_GUARDED_BY(g_prof_mu) = 0;
  uint64_t retired_overhead_ns SNB_GUARDED_BY(g_prof_mu) = 0;
  uint64_t retired_task_clock_ns SNB_GUARDED_BY(g_prof_mu) = 0;
  uint32_t threads_ever SNB_GUARDED_BY(g_prof_mu) = 0;
  bool collator_running SNB_GUARDED_BY(g_prof_mu) = false;
  bool collator_stop SNB_GUARDED_BY(g_prof_mu) = false;
  std::thread collator;  // Managed under g_prof_mu via the flags above.
  std::condition_variable_any collator_cv;
};

State& S() {
  static State* state = new State();  // Leaked by design, see above.
  return *state;
}

/// The calling thread's registration, set under g_prof_mu by
/// RegisterCurrentThread before its timer can fire. Read by the signal
/// handler: initial-exec TLS resolves to a register offset, no lazy
/// allocation, so the access is async-signal-safe in practice (the same
/// contract every in-process sampling profiler relies on).
thread_local ThreadState* tls_state = nullptr;

/// Unregisters at thread exit for threads that never close their scope
/// explicitly (lazily-registered pool workers). A thread_local with a
/// destructor is only constructed — and its at-thread-exit destructor
/// only registered — on first odr-use, so RegisterCurrentThread calls
/// EnsureConstructed(); without that, pool threads would retire with
/// their timers armed and dangling pthread_t handles in the registry.
struct TlsOwner {
  void EnsureConstructed() {}
  ~TlsOwner() { UnregisterCurrentThread(); }
};
thread_local TlsOwner tls_owner;

#if defined(__linux__)

#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

pid_t CurrentTid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

uint64_t TimespecNs(const timespec& ts) {
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// CPU time the calling thread has burned so far.
uint64_t SelfCpuNs() {
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return TimespecNs(ts);
}

/// CPU time of another (live, registered) thread, via its CPU clock.
uint64_t ThreadCpuNs(pthread_t thread) {
  clockid_t clock;
  timespec ts{};
  if (::pthread_getcpuclockid(thread, &clock) != 0) return 0;
  if (::clock_gettime(clock, &ts) != 0) return 0;
  return TimespecNs(ts);
}

// ---- The signal handler ---------------------------------------------------
//
// Async-signal-safety rules (documented in DESIGN.md):
//   * no allocation, no locks, no iostream, no string building;
//   * only clock_gettime (async-signal-safe per POSIX), relaxed/acq-rel
//     atomics on this thread's own state, and raw memory reads that are
//     bounds-checked against this thread's stack;
//   * errno is saved and restored;
//   * SIGPROF is not SA_NODEFER, so the handler never re-enters itself.

/// Frame-pointer walk out of the interrupted context. Frames layout
/// (x86-64 and AArch64 alike, given -fno-omit-frame-pointer): [fp] is
/// the caller's frame pointer, [fp + 8] the return address. Every
/// dereference is bounds-checked against the thread's stack and the
/// chain must grow strictly upward, so a torn or foreign fp terminates
/// the walk instead of faulting.
uint16_t WalkStack(void* ucontext_ptr, const ThreadState* st,
                   uintptr_t* out) {
  uintptr_t pc = 0;
  uintptr_t fp = 0;
#if defined(__x86_64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext_ptr);
  pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext_ptr);
  pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)ucontext_ptr;  // Unknown frame layout: context-only samples.
#endif
  uint16_t depth = 0;
  if (pc != 0) out[depth++] = pc;
  while (depth < kMaxFrames && fp >= st->stack_lo &&
         fp + 2 * sizeof(uintptr_t) <= st->stack_hi &&
         (fp & (sizeof(uintptr_t) - 1)) == 0) {
    const uintptr_t* frame = reinterpret_cast<const uintptr_t*>(fp);
    uintptr_t next_fp = frame[0];
    uintptr_t ret = frame[1];
    if (ret < 4096) break;  // Null page: top of the chain.
    out[depth++] = ret;
    if (next_fp <= fp) break;  // Stacks grow down; fp chains grow up.
    fp = next_fp;
  }
  return depth;
}

void ProfSignalHandler(int /*signo*/, siginfo_t* /*info*/, void* ucontext) {
  // Checked by tools/snb_invariants: everything this handler can reach
  // must stay async-signal-safe (allowlist) and lock-free (the SPSC ring
  // push must never contend with the thread it interrupted).
  SNB_INVARIANT_ROOT("signal_safe");
  SNB_INVARIANT_ROOT("lockfree");
  int saved_errno = errno;
  ThreadState* st = tls_state;
  if (st != nullptr &&
      g_backend.load(std::memory_order_relaxed) == Backend::kTimer) {
    timespec t0{};
    ::clock_gettime(CLOCK_MONOTONIC, &t0);
    uint32_t head = st->head.load(std::memory_order_relaxed);
    uint32_t tail = st->tail.load(std::memory_order_acquire);
    if (head - tail >= kRingCapacity) {
      st->dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      Sample& s = st->ring[head % kRingCapacity];
      s.op = st->op_context.load(std::memory_order_relaxed);
      s.label = st->op_label.load(std::memory_order_relaxed);
      s.depth = WalkStack(ucontext, st, s.pc);
      st->head.store(head + 1, std::memory_order_release);
    }
    timespec t1{};
    ::clock_gettime(CLOCK_MONOTONIC, &t1);
    st->overhead_ns.fetch_add(TimespecNs(t1) - TimespecNs(t0),
                              std::memory_order_relaxed);
  }
  errno = saved_errno;
}

// ---- Timers ---------------------------------------------------------------

/// timer_create against `thread`'s CPU clock, delivering SIGPROF to
/// exactly that thread. Honours the test injection hook.
int TimerCreateForThread(pid_t tid, pthread_t thread, timer_t* out) {
  int forced = g_forced_errno.load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  clockid_t clock;
  // pthread_getcpuclockid returns its error code directly (it does not
  // set errno), so reading errno here would report unrelated stale state.
  int rc = ::pthread_getcpuclockid(thread, &clock);
  if (rc != 0) return rc;
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = tid;
  if (::timer_create(clock, &sev, out) != 0) {
    return errno != 0 ? errno : EINVAL;
  }
  return 0;
}

void ArmTimerLocked(ThreadState* st) SNB_REQUIRES(g_prof_mu) {
  if (st->timer_armed || !st->live) return;
  timer_t timer;
  if (TimerCreateForThread(st->tid, st->pthread, &timer) != 0) {
    // The probe passed but this thread's timer failed (clock raced a
    // dying thread, kernel limits): degrade per thread, run stays valid.
    return;
  }
  static_assert(kIntervalUs < 1000000, "the interval fits in tv_nsec");
  itimerspec spec{};
  spec.it_interval.tv_nsec = long{kIntervalUs} * 1000;
  spec.it_value = spec.it_interval;
  if (::timer_settime(timer, 0, &spec, nullptr) != 0) {
    ::timer_delete(timer);
    return;
  }
  st->timer = timer;
  st->timer_armed = true;
}

void DisarmTimerLocked(ThreadState* st) SNB_REQUIRES(g_prof_mu) {
  if (!st->timer_armed) return;
  ::timer_delete(st->timer);
  st->timer_armed = false;
}

/// Installs the SIGPROF handler once per process. SA_RESTART keeps
/// interrupted syscalls (reads, sleeps) transparent to the run.
[[maybe_unused]] bool InstallHandlerOnce() {
  static const bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = ProfSignalHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    return ::sigaction(SIGPROF, &sa, nullptr) == 0;
  }();
  return installed;
}

/// Can this process create + arm a CPU-clock timer at all? Returns 0 or
/// the failing errno (EPERM under seccomp, ENOSYS, ...).
[[maybe_unused]] int ProbeTimer() {
  timer_t timer;
  int err = TimerCreateForThread(CurrentTid(), pthread_self(), &timer);
  if (err != 0) return err;
  ::timer_delete(timer);
  return 0;
}

void CaptureStackBounds(uintptr_t* lo, uintptr_t* hi) {
  *lo = 0;
  *hi = 0;
  pthread_attr_t attr;
  if (::pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* addr = nullptr;
  size_t size = 0;
  if (::pthread_attr_getstack(&attr, &addr, &size) == 0) {
    *lo = reinterpret_cast<uintptr_t>(addr);
    *hi = *lo + size;
  }
  ::pthread_attr_destroy(&attr);
}

#else  // !__linux__

[[maybe_unused]] int ProbeTimer() { return ENOSYS; }

#endif  // __linux__

// ---- Folding (collator side, all under g_prof_mu) -------------------------

uint32_t InternLaneLocked(const std::string& name) SNB_REQUIRES(g_prof_mu) {
  std::vector<std::string>& lanes = S().lanes;
  for (uint32_t i = 0; i < lanes.size(); ++i) {
    if (lanes[i] == name) return i;
  }
  lanes.push_back(name);
  return static_cast<uint32_t>(lanes.size() - 1);
}

void FoldSampleLocked(const ThreadState* st, const Sample& s)
    SNB_REQUIRES(g_prof_mu) {
  if (s.op != kNoOpContext) {
    ++S().attributed;
  } else {
    ++S().unattributed;
  }
  FoldKey key;
  key.reserve(3 + s.depth);
  key.push_back(st->lane_id);
  key.push_back(s.op);
  key.push_back(reinterpret_cast<uintptr_t>(s.label));
  for (uint16_t i = 0; i < s.depth; ++i) key.push_back(s.pc[i]);
  ++S().folds[key];
}

// noinline/used: the SPSC pop side must survive as a standalone symbol
// so tools/snb_invariants can verify its closure (it would otherwise
// inline into its lone caller and vanish from the binary).
__attribute__((noinline, used)) void DrainThreadLocked(ThreadState* st)
    SNB_REQUIRES(g_prof_mu) {
  // The consumer end of the sample ring: pairs with the handler's push.
  // It runs under g_prof_mu but must not itself take locks — the ring
  // protocol is what keeps the producer signal context wait-free.
  SNB_INVARIANT_ROOT("lockfree");
  uint32_t tail = st->tail.load(std::memory_order_relaxed);
  uint32_t head = st->head.load(std::memory_order_acquire);
  while (tail != head) {
    FoldSampleLocked(st, st->ring[tail % kRingCapacity]);
    ++tail;
  }
  st->tail.store(tail, std::memory_order_release);
}

/// Best-effort symbolization with a per-address cache: dladdr (exported
/// symbols — CMAKE_ENABLE_EXPORTS keeps ours visible) demangled via
/// __cxa_demangle; hex fallback otherwise. ';' would corrupt the folded
/// format, so it is scrubbed from symbol names.
const std::string& SymbolizeLocked(uintptr_t pc) SNB_REQUIRES(g_prof_mu) {
  auto& cache = S().symbols;
  auto it = cache.find(pc);
  if (it != cache.end()) return it->second;
  std::string name;
#if defined(__linux__)
  Dl_info info;
  if (::dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = status == 0 && demangled != nullptr ? demangled : info.dli_sname;
    std::free(demangled);
    for (char& c : name) {
      if (c == ';' || c == '\n' || c == '\t') c = '_';
    }
  }
#endif
  if (name.empty()) {
    char buf[2 + 2 * sizeof(uintptr_t) + 1];
    std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<size_t>(pc));
    name = buf;
  }
  return cache.emplace(pc, std::move(name)).first->second;
}

FoldedStack RenderStackLocked(const FoldKey& key, uint64_t count)
    SNB_REQUIRES(g_prof_mu) {
  FoldedStack out;
  out.count = count;
  out.lane = key[0] < S().lanes.size() ? S().lanes[key[0]] : "unknown";
  uint16_t op = static_cast<uint16_t>(key[1]);
  if (op != kNoOpContext && op < kNumOpTypes) {
    out.op = OpTypeName(static_cast<OpType>(op));
  }
  if (key[2] != 0) {
    out.op_label = reinterpret_cast<const char*>(key[2]);
  }
  // Stored leaf..root from index 3; rendered root-first. Return
  // addresses (every frame above the leaf) point one past their call
  // instruction, so they symbolize at pc - 1.
  out.frames.reserve(key.size() - 3);
  for (size_t i = key.size(); i > 3; --i) {
    uintptr_t pc = key[i - 1];
    out.frames.push_back(SymbolizeLocked(i - 1 == 3 ? pc : pc - 1));
  }
  return out;
}

// ---- Collator -------------------------------------------------------------

void CollatorMain() {
  util::MutexLock lock(&g_prof_mu);
  while (!S().collator_stop) {
    for (ThreadState* st : S().registry) DrainThreadLocked(st);
    // Spurious wakeups just re-drain; the stop flag is re-read under
    // the lock each iteration.
    S().collator_cv.wait_for(lock, std::chrono::milliseconds(100));
  }
  S().collator_running = false;
}

void StartCollatorLocked() SNB_REQUIRES(g_prof_mu) {
  if (S().collator_running) return;
  if (S().collator.joinable()) S().collator.join();
  S().collator_running = true;
  S().collator_stop = false;
  S().collator = std::thread(CollatorMain);
}

/// Stops the collator and disarms every timer; used by Enable()
/// (re-probe) and ResetForTest().
void StopSamplingMachinery() SNB_EXCLUDES(g_prof_mu) {
  bool join = false;
  {
    util::MutexLock lock(&g_prof_mu);
    for (ThreadState* st : S().registry) {
#if defined(__linux__)
      DisarmTimerLocked(st);
#else
      (void)st;
#endif
    }
    if (S().collator_running) {
      S().collator_stop = true;
      join = true;
    }
  }
  if (join) {
    S().collator_cv.notify_all();
    if (S().collator.joinable()) S().collator.join();
  }
}

}  // namespace

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kDisabled:
      return "disabled";
    case Backend::kNoop:
      return "noop";
    case Backend::kTimer:
      return "timer";
  }
  return "unknown";
}

Backend Enable(const EnableOptions& options) {
  StopSamplingMachinery();
  const char* forced_env = std::getenv("SNB_PROF_FORCE_NOOP");
  if (options.force_noop ||
      (forced_env != nullptr && forced_env[0] != '\0' &&
       std::strcmp(forced_env, "0") != 0)) {
    SetMessage(options.force_noop
                   ? "no-op backend forced by caller"
                   : "no-op backend forced by SNB_PROF_FORCE_NOOP");
    g_backend.store(Backend::kNoop, std::memory_order_release);
    return Backend::kNoop;
  }
#if defined(SNB_PROF_UNDER_SANITIZER)
  SetMessage(
      "no-op backend: sampling auto-disabled under a sanitizer "
      "(signal interception)");
  g_backend.store(Backend::kNoop, std::memory_order_release);
  return Backend::kNoop;
#else
#if defined(__linux__)
  if (!InstallHandlerOnce()) {
    SetMessage("no-op backend: sigaction(SIGPROF) failed");
    g_backend.store(Backend::kNoop, std::memory_order_release);
    return Backend::kNoop;
  }
#endif
  int err = ProbeTimer();
  if (err != 0) {
    SetMessage(std::string("timer_create failed: ") + std::strerror(err) +
               " — CPU sampling unavailable, continuing with the no-op "
               "backend");
    g_backend.store(Backend::kNoop, std::memory_order_release);
    return Backend::kNoop;
  }
  SetMessage("sampling live (per-thread POSIX CPU timers, interval " +
             std::to_string(kIntervalUs) + " us of thread CPU time)");
  // Publish the backend before arming: the first signal must already
  // see kTimer.
  g_backend.store(Backend::kTimer, std::memory_order_release);
  {
    util::MutexLock lock(&g_prof_mu);
#if defined(__linux__)
    for (ThreadState* st : S().registry) ArmTimerLocked(st);
#endif
    StartCollatorLocked();
  }
  return Backend::kTimer;
#endif  // SNB_PROF_UNDER_SANITIZER
}

void ResetForTest() {
  g_backend.store(Backend::kDisabled, std::memory_order_release);
  StopSamplingMachinery();
  util::MutexLock lock(&g_prof_mu);
  State& s = S();
  s.folds.clear();
  s.attributed = 0;
  s.unattributed = 0;
  s.retired_dropped = 0;
  s.retired_overhead_ns = 0;
  s.retired_task_clock_ns = 0;
  s.threads_ever = static_cast<uint32_t>(s.registry.size());
  for (ThreadState* st : s.registry) {
    // Discard queued samples and restart this thread's clocks.
    st->tail.store(st->head.load(std::memory_order_acquire),
                   std::memory_order_release);
    st->dropped.store(0, std::memory_order_relaxed);
    st->overhead_ns.store(0, std::memory_order_relaxed);
#if defined(__linux__)
    st->cpu_base_ns = ThreadCpuNs(st->pthread);
#endif
  }
  // Retired thread states are unreachable now (their threads nulled
  // tls_state before retiring) — reclaim them.
  std::vector<std::unique_ptr<ThreadState>> keep;
  for (std::unique_ptr<ThreadState>& st : s.all) {
    if (st->live) keep.push_back(std::move(st));
  }
  s.all = std::move(keep);
  SetMessage("");
}

Backend ActiveBackend() {
  return g_backend.load(std::memory_order_acquire);
}

bool SamplingLive() { return ActiveBackend() == Backend::kTimer; }

std::string BackendMessage() {
  util::MutexLock lock(&g_prof_message_mu);
  return MessageStorage();
}

void SetTimerCreateErrnoForTest(int err) {
  g_forced_errno.store(err, std::memory_order_relaxed);
}

size_t LiveRegisteredThreadsForTest() {
  util::MutexLock lock(&g_prof_mu);
  return S().registry.size();
}

void RegisterCurrentThread(const char* lane_name) {
#if defined(__linux__)
  if (tls_state != nullptr) return;
  auto owned = std::make_unique<ThreadState>();
  ThreadState* st = owned.get();
  st->lane = lane_name != nullptr && lane_name[0] != '\0' ? lane_name
                                                          : "unnamed";
  st->tid = CurrentTid();
  st->pthread = pthread_self();
  CaptureStackBounds(&st->stack_lo, &st->stack_hi);
  // Odr-use the TLS owner now: this runs its lazy construction and
  // registers its destructor (the at-thread-exit unregister) with the
  // C++ runtime for this thread.
  tls_owner.EnsureConstructed();
  util::MutexLock lock(&g_prof_mu);
  st->lane_id = InternLaneLocked(st->lane);
  st->cpu_base_ns = SelfCpuNs();
  S().all.push_back(std::move(owned));
  S().registry.push_back(st);
  ++S().threads_ever;
  tls_state = st;  // Set before arming: the first signal needs it.
  if (g_backend.load(std::memory_order_acquire) == Backend::kTimer) {
    ArmTimerLocked(st);
  }
#else
  (void)lane_name;
#endif
}

void UnregisterCurrentThread() {
#if defined(__linux__)
  ThreadState* st = tls_state;
  if (st == nullptr) return;
  util::MutexLock lock(&g_prof_mu);
  DisarmTimerLocked(st);
  DrainThreadLocked(st);
  uint64_t cpu = SelfCpuNs();
  State& s = S();
  s.retired_task_clock_ns += cpu > st->cpu_base_ns ? cpu - st->cpu_base_ns : 0;
  s.retired_dropped += st->dropped.load(std::memory_order_relaxed);
  s.retired_overhead_ns += st->overhead_ns.load(std::memory_order_relaxed);
  st->live = false;
  s.registry.erase(std::find(s.registry.begin(), s.registry.end(), st));
  tls_state = nullptr;
#endif
}

ScopedOpContext::ScopedOpContext(uint16_t op_index) {
  ThreadState* st = tls_state;
  if (st == nullptr) return;
  engaged_ = true;
  previous_ = st->op_context.load(std::memory_order_relaxed);
  st->op_context.store(op_index, std::memory_order_relaxed);
}

ScopedOpContext::~ScopedOpContext() {
  if (!engaged_) return;
  ThreadState* st = tls_state;
  if (st != nullptr) {
    st->op_context.store(previous_, std::memory_order_relaxed);
  }
}

ScopedOperatorLabel::ScopedOperatorLabel(const char* label) {
  if (label == nullptr || !SamplingLive()) return;
  ThreadState* st = tls_state;
  if (st == nullptr) return;
  engaged_ = true;
  previous_ = st->op_label.load(std::memory_order_relaxed);
  st->op_label.store(label, std::memory_order_relaxed);
}

ScopedOperatorLabel::~ScopedOperatorLabel() {
  if (!engaged_) return;
  ThreadState* st = tls_state;
  if (st != nullptr) {
    st->op_label.store(previous_, std::memory_order_relaxed);
  }
}

FoldedProfile Collect() {
  FoldedProfile out;
  out.backend = ActiveBackend();
  out.message = BackendMessage();
  out.interval_us = kIntervalUs;
  util::MutexLock lock(&g_prof_mu);
  State& s = S();
  for (ThreadState* st : s.registry) DrainThreadLocked(st);
  SampleAccounting& a = out.accounting;
  a.attributed = s.attributed;
  a.unattributed = s.unattributed;
  a.dropped = s.retired_dropped;
  a.self_overhead_ns = s.retired_overhead_ns;
  a.task_clock_ns = s.retired_task_clock_ns;
  for (ThreadState* st : s.registry) {
    a.dropped += st->dropped.load(std::memory_order_relaxed);
    a.self_overhead_ns += st->overhead_ns.load(std::memory_order_relaxed);
#if defined(__linux__)
    uint64_t cpu = ThreadCpuNs(st->pthread);
    if (cpu > st->cpu_base_ns) a.task_clock_ns += cpu - st->cpu_base_ns;
#endif
  }
  // Conserved by construction: every drained sample is attributed or
  // unattributed, every rejected one counted dropped.
  a.captured = a.attributed + a.unattributed + a.dropped;
  a.threads = s.threads_ever;
  out.stacks.reserve(s.folds.size());
  for (const auto& [key, count] : s.folds) {
    out.stacks.push_back(RenderStackLocked(key, count));
  }
  return out;
}

namespace {

/// The rendered identity of a stack (everything but the count).
std::string StackKey(const FoldedStack& stack) {
  std::string key = "thread:" + stack.lane;
  if (!stack.op.empty()) key += ";op:" + stack.op;
  if (!stack.op_label.empty()) key += ";opr:" + stack.op_label;
  for (const std::string& frame : stack.frames) {
    key += ';';
    key += frame;
  }
  return key;
}

}  // namespace

std::string ToFoldedText(const FoldedProfile& profile) {
  std::vector<std::pair<std::string, uint64_t>> lines;
  lines.reserve(profile.stacks.size());
  for (const FoldedStack& stack : profile.stacks) {
    lines.emplace_back(StackKey(stack), stack.count);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& [key, count] : lines) {
    out += key;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

}  // namespace snb::obs::prof
