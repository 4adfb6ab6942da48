#include "exec/vec/morsel_scheduler.h"

#include <algorithm>
#include <atomic>

#include "util/mutex.h"

namespace tabbench {
namespace vec {

namespace {

/// State shared between the calling thread and helper jobs for one Run().
/// The configuration triple is const — set once before any helper is
/// spawned, immutable after — so helpers read it with no synchronization.
struct RunState {
  RunState(size_t n_in,
           const std::function<Status(size_t, MorselReport*)>* body_in,
           double abort_seconds_in)
      : n(n_in), body(body_in), abort_seconds(abort_seconds_in) {}

  const size_t n;
  const std::function<Status(size_t, MorselReport*)>* const body;
  const double abort_seconds;

  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};

  Mutex mu;
  double charge_sum TB_GUARDED_BY(mu) = 0.0;
  size_t error_index TB_GUARDED_BY(mu) = 0;
  Status error TB_GUARDED_BY(mu);
};

void ClaimLoop(RunState* st) {
  for (;;) {
    if (st->stop.load(std::memory_order_acquire)) return;
    size_t i = st->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= st->n) return;
    MorselReport report;
    Status s = (*st->body)(i, &report);
    MutexLock lock(&st->mu);
    st->charge_sum += report.charge_seconds_lower_bound;
    if (!s.ok() && (st->error.ok() || i < st->error_index)) {
      st->error = std::move(s);
      st->error_index = i;
      st->stop.store(true, std::memory_order_release);
    }
    if (st->abort_seconds > 0.0 && st->charge_sum > st->abort_seconds) {
      st->stop.store(true, std::memory_order_release);
    }
  }
}

}  // namespace

size_t MorselScheduler::Run(
    size_t n, const std::function<Status(size_t, MorselReport*)>& body,
    const Options& options, Status* error) {
  *error = Status::OK();
  if (n == 0) return 0;

  RunState st(n, &body, options.abort_seconds);

  size_t want = 0;
  if (options.pool != nullptr && n > 1) {
    want = options.max_helpers > 0 ? options.max_helpers
                                   : options.pool->num_workers();
    want = std::min(want, n - 1);
  }
  Latch done(want);
  for (size_t h = 0; h < want; ++h) {
    // Plain Submit: a refused spawn (shut-down pool, injected fault)
    // simply means this helper never materializes.
    Status s = options.pool->Submit([&st, &done] {
      ClaimLoop(&st);
      done.CountDown();
    });
    if (!s.ok()) done.CountDown();
  }

  ClaimLoop(&st);
  done.Wait();

  {
    MutexLock lock(&st.mu);
    *error = st.error;
  }
  return std::min(st.next.load(std::memory_order_acquire), n);
}

}  // namespace vec
}  // namespace tabbench
