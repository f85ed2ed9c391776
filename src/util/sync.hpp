// Annotated synchronisation primitives: thin wrappers over std::mutex /
// std::condition_variable_any that carry the clang thread-safety attributes
// from util/thread_annotations.hpp. libstdc++'s std::mutex is not a
// capability, so locking it through std::lock_guard is invisible to the
// analysis; these wrappers make GUARDED_BY/REQUIRES checkable. New
// mutex-protected state should use util::Mutex, declare its guarded members
// with LOCPRIV_GUARDED_BY, and lock via util::MutexLock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace locpriv::util {

/// std::mutex as a clang capability. Same cost, same semantics; only the
/// type (and therefore the analysis) changes.
class LOCPRIV_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LOCPRIV_ACQUIRE() { mutex_.lock(); }
  void unlock() LOCPRIV_RELEASE() { mutex_.unlock(); }

 private:
  std::mutex mutex_;
};

/// RAII lock for Mutex (std::lock_guard shape, but visible to the analysis).
class LOCPRIV_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) LOCPRIV_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() LOCPRIV_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable over Mutex. Waits take the Mutex directly (it models
/// BasicLockable), so call sites keep their REQUIRES obligations explicit —
/// the wait atomically releases and reacquires, which is exactly what the
/// REQUIRES(mutex) contract (held on entry, held on exit) describes.
/// Spurious wakeups are possible; callers re-check their predicate in a
/// loop instead of passing lambdas the analysis cannot see into.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mutex) LOCPRIV_REQUIRES(mutex) { cv_.wait(mutex); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(Mutex& mutex,
                            const std::chrono::time_point<Clock, Duration>& deadline)
      LOCPRIV_REQUIRES(mutex) {
    return cv_.wait_until(mutex, deadline);
  }

  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace locpriv::util
