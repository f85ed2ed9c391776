// Annotated synchronisation primitives: thin wrappers over std::mutex that
// carry the clang thread-safety attributes from util/thread_annotations.hpp.
// libstdc++'s std::mutex is not a capability, so locking it through
// std::lock_guard is invisible to the analysis; these wrappers make
// GUARDED_BY/REQUIRES checkable. New mutex-protected state should use
// util::Mutex, declare its guarded members with LOCPRIV_GUARDED_BY, and lock
// via util::MutexLock.
#pragma once

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

}  // namespace locpriv::util
