#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/fault_injection.h"

namespace tabbench {

namespace {

size_t ResolveWorkers(size_t requested) {
  if (requested > 0) return requested;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool::ThreadPool(Options options)
    : num_workers_(ResolveWorkers(options.workers)) {
  workers_.reserve(num_workers_);
  for (size_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

Status ThreadPool::Submit(std::function<void()> job) {
  // Models a spawn rejection, the same shape as the shut-down refusal —
  // and like it Unavailable (transient) by convention. Deliberately not in
  // Enqueue: the runners' ParallelFor fan-out must not be perturbed by
  // injected faults (their work still completes).
  TB_FAULT_POINT("util.task_spawn");
  return Enqueue(std::move(job));
}

Status ThreadPool::Enqueue(std::function<void()> job) {
  {
    MutexLock lock(&mu_);
    if (shutdown_) return Status::Unavailable("thread pool is shut down");
    queue_.push_back(std::move(job));
    ++pending_;
  }
  work_cv_.NotifyOne();
  return Status::OK();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (pending_ != 0) idle_cv_.Wait(mu_);
}

void ThreadPool::Shutdown() {
  // Joining must happen outside mu_ (workers take mu_ to drain the queue),
  // so move the thread vector out under the lock and join the local copy.
  // A concurrent or repeated Shutdown() moves an empty vector: idempotent.
  std::vector<std::thread> workers;
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
    workers = std::move(workers_);
    workers_.clear();
  }
  work_cv_.NotifyAll();
  for (auto& t : workers) {
    if (t.joinable()) t.join();
  }
}

uint64_t ThreadPool::completed() const {
  MutexLock lock(&mu_);
  return completed_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) work_cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
    {
      MutexLock lock(&mu_);
      ++completed_;
      if (--pending_ == 0) idle_cv_.NotifyAll();
    }
  }
}

}  // namespace tabbench
