#ifndef TABBENCH_CORE_RUNNER_H_
#define TABBENCH_CORE_RUNNER_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cfc.h"
#include "engine/database.h"
#include "util/thread_pool.h"

namespace tabbench {

/// Which engine executes each query of a workload run. Both produce
/// bit-identical simulated costs, results, and buffer-pool state (the vec
/// engine's determinism contract; unsupported plan shapes silently fall
/// back to Volcano), so the choice is a wall-clock knob, not a semantic one.
enum class QueryExecutor {
  kVolcano,     // tuple-at-a-time iterators (exec/plan_executor.h)
  kVectorized,  // morsel-driven batch pipelines (exec/vec/vec_executor.h)
};

struct RunOptions {
  /// Collect E(q, C) optimizer estimates alongside the executions.
  bool collect_estimates = false;
  /// Clear the buffer pool before the workload (cold start).
  bool cold_start = true;
  /// Durable crash recovery (util/run_journal.h): when non-empty, every
  /// completed query's outcome — and the charge trace that makes it
  /// replayable — is appended and fsync'd to this file before the
  /// next query starts, so a process death loses at most the query in
  /// flight. Empty (the default) journals nothing and records no traces.
  std::string journal_path;
  /// With journal_path set: if the file already holds a journal written
  /// under these same options for this same workload, its completed prefix
  /// is *replayed* (restoring the simulated clock and buffer-pool state bit
  /// for bit via the trace-replay machinery, no query re-execution) and the
  /// run continues from the first unjournaled query, appending to the same
  /// file. A missing file starts a fresh journal; an incompatible one —
  /// including one written with the retired repetitions, fault-scope salt
  /// or retry options set — is refused with kInvalidArgument and left
  /// untouched. Bit-identity of a resumed run requires cold_start (the
  /// interrupted process's warm pool died with it).
  bool resume = false;
  /// Free-form provenance stamped into a fresh journal's header (database
  /// kind, scale, configuration label, …) so `tabbench resume <journal>`
  /// can rebuild the run with no other inputs.
  std::map<std::string, std::string> journal_metadata;
  /// Execution engine per query (see QueryExecutor above).
  QueryExecutor executor = QueryExecutor::kVolcano;
  /// kVectorized only: helper pool for intra-query morsel parallelism.
  /// nullptr runs every morsel on the query's own thread (serial
  /// vectorized). Helpers are submitted through the pool's admission
  /// control, so a loaded pool degrades smoothly toward serial.
  ThreadPool* intra_query_pool = nullptr;
  /// kVectorized only: helper-job cap per morsel phase; 0 = pool width.
  size_t intra_query_parallelism = 0;
};

/// The ResumeFrom(journal) option: journal to `path` and pick up any
/// completed prefix already recorded there.
inline RunOptions ResumeFrom(std::string path, RunOptions base = {}) {
  base.journal_path = std::move(path);
  base.resume = true;
  return base;
}

/// Final error of one isolated (censored) query.
struct QueryFailure {
  size_t query_index = 0;
  Status status;  // the error its one execution ended with
};

/// One workload executed on one configuration.
struct WorkloadResult {
  std::vector<QueryTiming> timings;   // per query, paper's A(q_k, C)
  std::vector<double> estimates;      // per query E(q_k, C) when collected
  size_t timeouts = 0;
  /// Queries whose execution ended in an error and were censored at the
  /// timeout cost — the paper's treatment of the advisor that "fails
  /// outright" (Section 5). Every failure also counts as a timeout (its
  /// timing enters the t_out bin).
  size_t failures = 0;
  /// Per-query detail for the failures, in workload order.
  std::vector<QueryFailure> failure_details;
  /// Sum over queries of min(time, timeout) — the paper's conservative
  /// lower-bound total (Section 4.3).
  double total_clamped_seconds = 0.0;

  CumulativeFrequency Cfc() const {
    return CumulativeFrequency::FromTimings(timings);
  }
};

/// Runs every query of the workload once, sequentially, on the database's
/// current configuration. Queries that trip the 30-minute simulated timeout
/// are recorded in the `t_out` bin, not errors; queries whose execution
/// *fails* (any error, injected faults included) are likewise isolated —
/// censored at the timeout cost with detail in `failure_details` — so a
/// workload run completes unless its journal or an estimate fails.
///
/// The paper averages three runs of each non-timeout query (Section 4.1)
/// to smooth measurement noise. The simulated clock is deterministic given
/// the buffer-pool state, so one run is exact here.
Result<WorkloadResult> RunWorkload(Database* db,
                                   const std::vector<std::string>& sql,
                                   const RunOptions& opts = {});

/// Optimizer estimates only (no execution): E(q, C_current) per query.
Result<std::vector<double>> EstimateWorkload(
    Database* db, const std::vector<std::string>& sql);

/// What-if estimates H(q, C_hyp, C_current) per query.
Result<std::vector<double>> HypotheticalWorkload(
    Database* db, const std::vector<std::string>& sql,
    const Configuration& hypothetical, const HypotheticalRules& rules);

/// Knobs for RunWorkloadParallel.
struct ParallelOptions {
  /// Worker pool that executes the fan-out. nullptr degrades
  /// RunWorkloadParallel to RunWorkload (handy for A/B runs).
  ThreadPool* pool = nullptr;
};

/// The parallel form of RunWorkload, *bit-identical* in output and in the
/// shared buffer pool's final state.
///
/// Sequential timings depend on the shared pool's warm-cache evolution
/// across queries, which naive parallelism scrambles. The key invariant
/// (see TraceEvent in util/trace_event.h) is that a query's *charge
/// sequence* — which pages it touches, in what order, and every CPU/spill
/// charge — does not depend on buffer state; only the hit/miss pricing
/// does. So:
///   1. record phase (parallel): workers execute queries concurrently,
///      each against a private cold session pool with timeout enforcement
///      off, recording full charge traces;
///   2. replay phase (sequential, cheap): the traces are replayed in
///      workload order through the database's real pool with
///      ExecContext::Apply — pure LRU walks, no query re-execution —
///      re-pricing every touch against the exact pool state the sequential
///      runner would have had, and re-applying the timeout at the recorded
///      check points.
/// The expensive work (planning, joins, aggregation) parallelizes; the
/// order-sensitive part costs one LRU pass per query. Queries are recorded
/// in batches of max(4 x pool width, 8), which bounds peak trace memory.
Result<WorkloadResult> RunWorkloadParallel(Database* db,
                                           const std::vector<std::string>& sql,
                                           const ParallelOptions& par,
                                           const RunOptions& opts = {});

}  // namespace tabbench

#endif  // TABBENCH_CORE_RUNNER_H_
