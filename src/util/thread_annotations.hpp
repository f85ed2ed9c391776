// Clang Thread Safety Analysis attribute macros (no-ops elsewhere). The
// LOCPRIV_ prefix keeps them collision-free; the spelling follows the clang
// documentation so the analysis semantics are exactly the documented ones.
//
// These only do something on capability-annotated types. libstdc++'s
// std::mutex carries no annotations, so code that wants the analysis uses
// the wrappers in util/sync.hpp (util::Mutex / util::MutexLock /
// util::CondVar) instead of std::mutex directly. Build with
// -DLOCPRIV_STATIC_ANALYSIS=ON under clang to turn violations into errors
// (-Wthread-safety -Werror=thread-safety).
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define LOCPRIV_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define LOCPRIV_THREAD_ANNOTATION__(x)  // no-op
#endif

/// Marks a type as a lockable capability (e.g. a mutex wrapper).
#define LOCPRIV_CAPABILITY(x) LOCPRIV_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII type whose lifetime holds a capability.
#define LOCPRIV_SCOPED_CAPABILITY LOCPRIV_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define LOCPRIV_GUARDED_BY(x) LOCPRIV_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x`.
#define LOCPRIV_PT_GUARDED_BY(x) LOCPRIV_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Lock-ordering constraints between capabilities.
#define LOCPRIV_ACQUIRED_BEFORE(...) \
  LOCPRIV_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define LOCPRIV_ACQUIRED_AFTER(...) \
  LOCPRIV_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Function requires the listed capabilities held on entry (and still held
/// on exit).
#define LOCPRIV_REQUIRES(...) \
  LOCPRIV_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function acquires/releases the listed capabilities.
#define LOCPRIV_ACQUIRE(...) \
  LOCPRIV_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define LOCPRIV_RELEASE(...) \
  LOCPRIV_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function must NOT be called with the listed capabilities held
/// (non-reentrancy / deadlock guard).
#define LOCPRIV_EXCLUDES(...) \
  LOCPRIV_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Asserts (at runtime, for the analysis) that the capability is held.
#define LOCPRIV_ASSERT_CAPABILITY(x) \
  LOCPRIV_THREAD_ANNOTATION__(assert_capability(x))

/// Function returns a reference to the named capability.
#define LOCPRIV_RETURN_CAPABILITY(x) LOCPRIV_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Prefer fixing the
/// annotations; use only where the locking pattern is deliberately outside
/// the analysis' model.
#define LOCPRIV_NO_THREAD_SAFETY_ANALYSIS \
  LOCPRIV_THREAD_ANNOTATION__(no_thread_safety_analysis)
