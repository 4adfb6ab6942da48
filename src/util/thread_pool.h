#ifndef TABBENCH_UTIL_THREAD_POOL_H_
#define TABBENCH_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tabbench {

/// Fixed-size worker pool over an unbounded FIFO job queue.
///
/// - `Submit` enqueues a job, or fails fast with `Unavailable` once the
///   pool is shutting down — it never blocks the caller. It carries the
///   `util.task_spawn` fault point, so chaos schedules can refuse a spawn.
/// - `Enqueue` is `Submit` without the fault point, for internal fan-outs
///   (ParallelFor) whose work must complete under any chaos schedule.
/// - Shutdown (explicit or via the destructor) stops admission, drains
///   every already-accepted job, and joins the workers.
///
/// All mutable state is guarded by `mu_` and annotated for Clang's
/// -Wthread-safety analysis (see util/thread_annotations.h); the CI script
/// compiles this file with -Werror=thread-safety under Clang.
class ThreadPool {
 public:
  struct Options {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    size_t workers = 0;
  };

  explicit ThreadPool(Options options);
  explicit ThreadPool(size_t workers) : ThreadPool(Options{workers}) {}
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `job`; Unavailable after Shutdown (or when an armed
  /// `util.task_spawn` fault refuses the spawn).
  Status Submit(std::function<void()> job) TB_EXCLUDES(mu_);

  /// Enqueues `job`; Unavailable only after Shutdown.
  Status Enqueue(std::function<void()> job) TB_EXCLUDES(mu_);

  /// Blocks until every job accepted so far has finished. The pool stays
  /// usable afterwards.
  void Wait() TB_EXCLUDES(mu_);

  /// Stops accepting jobs, drains the queue, joins the workers. Idempotent.
  void Shutdown() TB_EXCLUDES(mu_);

  /// Workers the pool was built with. Immutable after construction, so this
  /// stays valid (and race-free) even while Shutdown() joins the threads.
  size_t num_workers() const { return num_workers_; }
  uint64_t completed() const TB_EXCLUDES(mu_);

 private:
  void WorkerLoop() TB_EXCLUDES(mu_);

  const size_t num_workers_;
  mutable Mutex mu_;
  CondVar work_cv_;   // workers wait for jobs/shutdown
  CondVar idle_cv_;   // Wait() waits for pending_ == 0
  std::deque<std::function<void()>> queue_ TB_GUARDED_BY(mu_);
  size_t pending_ TB_GUARDED_BY(mu_) = 0;  // queued + running
  uint64_t completed_ TB_GUARDED_BY(mu_) = 0;
  bool shutdown_ TB_GUARDED_BY(mu_) = false;
  /// Joined and cleared by the first Shutdown(); guarded so concurrent
  /// Shutdown() calls (e.g. explicit + destructor) cannot race on the
  /// vector itself — the joining happens on a moved-out local copy.
  std::vector<std::thread> workers_ TB_GUARDED_BY(mu_);
};

/// One-shot join point for a known number of events.
class Latch {
 public:
  explicit Latch(size_t count) : count_(count) {}

  void CountDown() TB_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (--count_ == 0) cv_.NotifyAll();
  }

  void Wait() TB_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (count_ != 0) cv_.Wait(mu_);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  size_t count_ TB_GUARDED_BY(mu_);
};

/// Runs `fn(i)` for every i in [0, n) on the pool (Enqueue) and joins
/// before returning. A shared pool may carry unrelated work, so this joins
/// on its own Latch, never ThreadPool::Wait().
///
/// `fn` must not throw and must write only state owned by its index (the
/// fan-out/fan-in makes per-slot results race-free without locks). When the
/// pool refuses a job (shut down mid-run), `on_reject(i, status)` runs on
/// the calling thread instead of `fn(i)`. A nullptr pool degrades to a
/// plain sequential loop.
template <typename Fn, typename Reject>
void ParallelFor(ThreadPool* pool, size_t n, Fn&& fn, Reject&& on_reject) {
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Latch latch(n);
  for (size_t i = 0; i < n; ++i) {
    Status s = pool->Enqueue([i, &fn, &latch] {
      fn(i);
      latch.CountDown();
    });
    if (!s.ok()) {
      on_reject(i, std::move(s));
      latch.CountDown();
    }
  }
  latch.Wait();
}

}  // namespace tabbench

#endif  // TABBENCH_UTIL_THREAD_POOL_H_
