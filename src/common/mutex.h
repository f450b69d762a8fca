// Annotated mutex wrappers (ABSL-style) used by every concurrent subsystem.
//
//   Mutex       — std::mutex carrying the Clang `capability` attribute so
//                 GUARDED_BY/REQUIRES annotations are machine-checked.
//   MutexLock   — scoped lock (RAII) with annotated Unlock()/Lock() for the
//                 rare drop-the-lock-around-IO patterns.
//   CondVar     — condition variable that waits on a MutexLock; use explicit
//                 `while (...) cv.Wait(lock);` loops so the guarded reads sit
//                 in the annotated enclosing function, not in a lambda.
//
// Lock order is checked dynamically by ThreadSanitizer's deadlock detector
// (-DSKADI_SANITIZE=thread), which reports an acquisition-order cycle even
// when the run never deadlocks.
#ifndef SRC_COMMON_MUTEX_H_
#define SRC_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>  // lint:allow raw-mutex (wrapper internals)

#include "src/common/thread_annotations.h"

namespace skadi {

// Plain annotated mutex: zero overhead over std::mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // BasicLockable interface (CondVar, std::lock_guard).
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return TryLock(); }

 private:
  std::mutex mu_;  // lint:allow raw-mutex (wrapper internals)
};

// Scoped lock. Supports the drop-the-lock-around-IO pattern through
// annotated Unlock()/Lock(); the destructor releases only if held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() RELEASE() {
    if (held_) {
      mu_->Unlock();
    }
  }

  // Temporarily release the lock (e.g. around a blocking store operation).
  void Unlock() RELEASE() {
    mu_->Unlock();
    held_ = false;
  }

  // Reacquire after Unlock().
  void Lock() ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex* mu_;
  bool held_ = true;
};

// Condition variable bound to a MutexLock at each wait. Callers use explicit
// condition loops:
//
//   MutexLock lock(mu_);
//   while (items_.empty() && !closed_) {
//     cv_.Wait(lock);
//   }
//
// so every guarded read happens in the annotated enclosing function.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  // Atomically releases the lock, blocks, and reacquires before returning.
  // The capability is held again on return, so no annotation change.
  void Wait(MutexLock& lock) { cv_.wait(*lock.mu_); }

  // Waits until woken or `deadline`; returns std::cv_status::timeout on
  // expiry. Callers must re-check their condition either way.
  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(MutexLock& lock,
                           const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(*lock.mu_, deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(MutexLock& lock,
                         const std::chrono::duration<Rep, Period>& timeout) {
    return cv_.wait_for(*lock.mu_, timeout);
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace skadi

#endif  // SRC_COMMON_MUTEX_H_
