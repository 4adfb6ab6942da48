#ifndef TABBENCH_EXEC_VEC_VEC_EXECUTOR_H_
#define TABBENCH_EXEC_VEC_VEC_EXECUTOR_H_

#include <cstddef>

#include "exec/exec_context.h"
#include "exec/plan.h"
#include "exec/plan_executor.h"
#include "util/thread_pool.h"

namespace tabbench {
namespace vec {

/// Knobs for the morsel-driven vectorized executor.
struct VecExecOptions {
  /// Pool supplying helper threads for morsel phases. nullptr runs every
  /// morsel on the calling thread (serial vectorized execution).
  ThreadPool* pool = nullptr;
  /// Helper-job cap per morsel phase; 0 means pool->num_workers(). The
  /// calling thread always participates on top of this.
  size_t max_parallelism = 0;
  /// Heap pages per scan morsel.
  size_t morsel_pages = 32;
};

/// Executes `plan` with the morsel-driven, batch-vectorized engine:
/// pipelines pull column batches from page-granular morsels, filter them
/// with branch-free kernels, and run the surviving rows through probe
/// stages into breaker sinks — in parallel across morsels when a pool is
/// given.
///
/// Simulated-cost contract: the query's charges are recorded into per-morsel
/// trace fragments, assembled in canonical morsel order (exec/vec/
/// trace_merge.h), and applied to `ctx` through its live charge methods —
/// so simulated time, buffer-pool state, page/tuple counters, and
/// timeout/fault behavior are bit-identical to the Volcano executor
/// on the same plan, whether zero, one, or many helper threads ran.
///
/// Plans the engine does not cover return Status::Unsupported *before any
/// work is charged to ctx*, so the caller can fall back to ExecutePlan
/// transparently. Under injected faults the engine is attempt-granular: a
/// failing morsel phase surfaces its error without charging the partial
/// attempt (DESIGN.md §6e lists the deviations).
Result<QueryResult> ExecutePlanVectorized(const PhysicalPlan& plan,
                                          const ObjectResolver& resolver,
                                          ExecContext* ctx,
                                          const VecExecOptions& options);

}  // namespace vec
}  // namespace tabbench

#endif  // TABBENCH_EXEC_VEC_VEC_EXECUTOR_H_
