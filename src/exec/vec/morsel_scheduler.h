#ifndef TABBENCH_EXEC_VEC_MORSEL_SCHEDULER_H_
#define TABBENCH_EXEC_VEC_MORSEL_SCHEDULER_H_

#include <cstddef>
#include <functional>

#include "util/status.h"
#include "util/thread_pool.h"

namespace tabbench {
namespace vec {

/// Work a morsel reports back so the scheduler can stop a doomed query
/// early: simulated seconds its fragment is guaranteed to cost on replay
/// (pure charges; buffer-pool misses only add to it).
struct MorselReport {
  double charge_seconds_lower_bound = 0.0;
};

/// Runs `body(morsel_index, report)` for every morsel in [0, n).
///
/// Self-scheduling over a shared atomic cursor: the *calling thread* claims
/// morsels in index order, and up to `max_helpers` helper jobs submitted to
/// `pool` steal from the same cursor. Helpers are pure acceleration — a
/// Submit() the pool refuses (shut down, or an injected util.task_spawn
/// fault) just means fewer helpers, never deadlock and never a changed
/// result.
///
/// Stop conditions, checked before every claim:
///  - a morsel returned an error → no new morsels are dispatched,
///    in-flight morsels drain before Run returns, and the error of the
///    *lowest* morsel index is returned (deterministic under any
///    interleaving);
///  - the accumulated lower-bound charge clock passed `abort_seconds`
///    (doomed query; > 0 enables) → Run returns OK and the executor's
///    deterministic sequential gate decides the actual trace cut.
///
/// Because claims are handed out in index order and every claimed morsel
/// completes, the completed set is always a prefix [0, k] of the morsel
/// list — the property the deterministic trace assembly relies on.
class MorselScheduler {
 public:
  struct Options {
    ThreadPool* pool = nullptr;  // nullptr → run everything on the caller
    size_t max_helpers = 0;      // 0 → pool->num_workers()
    double abort_seconds = 0.0;
  };

  /// Returns the number of morsels completed (always a prefix; == n when
  /// nothing stopped early). Sets *error to the winning morsel error, if
  /// any.
  static size_t Run(size_t n,
                    const std::function<Status(size_t, MorselReport*)>& body,
                    const Options& options, Status* error);
};

}  // namespace vec
}  // namespace tabbench

#endif  // TABBENCH_EXEC_VEC_MORSEL_SCHEDULER_H_
