#ifndef TABBENCH_UTIL_MUTEX_H_
#define TABBENCH_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace tabbench {

/// std::mutex wrapped as an annotated capability so Clang's -Wthread-safety
/// analysis can track it (std::mutex itself carries no annotations on
/// libstdc++). Zero overhead: every method is a direct forward.
///
/// Also satisfies BasicLockable (lower-case lock/unlock) so std::lock_guard
/// and std::scoped_lock work, though MutexLock below is preferred because it
/// is annotated as a scoped capability.
class TB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TB_ACQUIRE() { mu_.lock(); }
  void Unlock() TB_RELEASE() { mu_.unlock(); }

  // BasicLockable spelling (std::lock_guard et al.).
  void lock() TB_ACQUIRE() { mu_.lock(); }
  void unlock() TB_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock for Mutex, annotated as a scoped capability: the analysis knows
/// the mutex is held from construction to destruction.
class TB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) TB_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() TB_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable bound to the annotated Mutex. `Wait` requires the
/// mutex held (enforced by the analysis) and — like std::condition_variable
/// — atomically releases it while blocked and reacquires it before
/// returning, so the caller's critical section is intact on both sides.
///
/// Internally adopts the already-held std::mutex into a unique_lock for the
/// duration of the wait and releases ownership (not the lock) afterwards;
/// the annotated locking state never changes across the call.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// No predicate overload on purpose: callers spell the guard as an
  /// explicit `while (!cond) cv.Wait(mu);` loop, which keeps every guarded
  /// read inside the annotated function body (the analysis treats lambda
  /// bodies as separate, unannotated functions).
  void Wait(Mutex& mu) TB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // still locked; hand ownership back to the caller
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace tabbench

#endif  // TABBENCH_UTIL_MUTEX_H_
