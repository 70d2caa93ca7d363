// Clang thread-safety-analysis attribute macros (the `snb::check` layer).
//
// PRs 1-3 moved the store's read path onto a hand-rolled epoch/RCU
// protocol and the observability layer onto lock-free registries; the
// correctness of both now rests on locking discipline that runtime TSan
// can only spot-check on the interleavings the stress tests happen to
// hit. These macros move that discipline into the type system: every
// mutex-protected member is declared `SNB_GUARDED_BY(mu_)`, every
// "caller must hold the lock" internal is declared `SNB_REQUIRES(mu_)`,
// and a Clang build (`-Wthread-safety -Werror=thread-safety`, turned on
// automatically by the top-level CMakeLists) rejects any access that
// cannot prove it holds the right capability. GCC builds compile the
// annotations away.
//
// The annotated lock types (`snb::util::Mutex`, `snb::util::SharedMutex`
// and their RAII scopes) live in util/mutex.h; raw `std::mutex` is banned
// outside that header by scripts/lint.sh. The capability inventory — which
// mutex protects what, and in which order locks nest — is DESIGN.md's
// "Lock table"; lint.sh cross-checks that every declared capability is
// documented there.
#ifndef SNB_UTIL_THREAD_ANNOTATIONS_H_
#define SNB_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SNB_NO_THREAD_SAFETY_ANALYSIS_MACROS)
#define SNB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SNB_THREAD_ANNOTATION(x)  // no-op
#endif

/// Declares a type as a capability (a lock). The string names the
/// capability in diagnostics: "reading variable 'x' requires holding
/// mutex 'mu_'".
#define SNB_CAPABILITY(x) SNB_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability.
#define SNB_SCOPED_CAPABILITY SNB_THREAD_ANNOTATION(scoped_lockable)

/// Data members: accessible only while holding the named capability
/// (exclusively for writes, at least shared for reads).
#define SNB_GUARDED_BY(x) SNB_THREAD_ANNOTATION(guarded_by(x))

/// Pointer members: the *pointee* is protected by the capability (the
/// pointer itself is not).
#define SNB_PT_GUARDED_BY(x) SNB_THREAD_ANNOTATION(pt_guarded_by(x))

/// Functions: caller must hold the capability exclusively / shared.
#define SNB_REQUIRES(...) \
  SNB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SNB_REQUIRES_SHARED(...) \
  SNB_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Functions: acquire / release the capability (exclusive or shared).
#define SNB_ACQUIRE(...) \
  SNB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SNB_ACQUIRE_SHARED(...) \
  SNB_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define SNB_RELEASE(...) \
  SNB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SNB_RELEASE_SHARED(...) \
  SNB_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define SNB_RELEASE_GENERIC(...) \
  SNB_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/// Try-lock functions; `b` is the success return value.
#define SNB_TRY_ACQUIRE(...) \
  SNB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define SNB_TRY_ACQUIRE_SHARED(...) \
  SNB_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock prevention; catches
/// re-entrant acquisition of non-recursive mutexes).
#define SNB_EXCLUDES(...) SNB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Lock-ordering edge: this capability must be acquired after `x`.
#define SNB_ACQUIRED_AFTER(...) \
  SNB_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define SNB_ACQUIRED_BEFORE(...) \
  SNB_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/// Returns a reference to the capability protecting the returned data
/// (lets `SNB_GUARDED_BY(other.mu())` style declarations resolve).
#define SNB_RETURN_CAPABILITY(x) SNB_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code whose safety argument the analysis cannot see
/// (registration-phase-only writes, a run-time set of locks taken in a
/// fixed order). Every use must carry a comment with the manual proof.
#define SNB_NO_THREAD_SAFETY_ANALYSIS \
  SNB_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // SNB_UTIL_THREAD_ANNOTATIONS_H_
