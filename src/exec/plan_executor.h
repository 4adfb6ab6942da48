#ifndef TABBENCH_EXEC_PLAN_EXECUTOR_H_
#define TABBENCH_EXEC_PLAN_EXECUTOR_H_

#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "exec/plan.h"
#include "storage/btree.h"
#include "storage/heap_table.h"
#include "types/tuple.h"
#include "util/status.h"

namespace tabbench {

/// Physical index metadata the executor needs to run an index access path.
struct IndexInfo {
  const BTree* btree = nullptr;
  /// Heap the index's Rids point into (base table or materialized view).
  const HeapTable* heap = nullptr;
  /// Key column positions within that heap's row layout, in key order.
  std::vector<int> key_cols;
};

class InSetMemo;

/// Maps plan object/index names to physical storage. Implemented by the
/// engine's Database; tests implement it directly over raw storage.
class ObjectResolver {
 public:
  virtual ~ObjectResolver() = default;
  virtual const HeapTable* FindHeap(const std::string& name) const = 0;
  virtual const IndexInfo* FindIndex(const std::string& name) const = 0;
  /// The IN-set memo shared by every query over this storage
  /// (exec/in_set.h); nullptr scans every IN-set afresh.
  virtual InSetMemo* in_set_memo() const { return nullptr; }
};

/// Outcome of running one query.
struct QueryResult {
  std::vector<Tuple> rows;
  /// Simulated elapsed seconds A(q, C). For timed-out queries this is
  /// clamped to the timeout limit (the paper's lower-bound convention).
  double sim_seconds = 0.0;
  uint64_t pages_read = 0;
  uint64_t tuples_processed = 0;
  bool timed_out = false;
};

/// The outcome of a query that stopped with `ctx`'s charges. A timed-out
/// query is clamped to the timeout limit and returns no rows.
QueryResult FinishQuery(const ExecContext& ctx, bool timed_out,
                        std::vector<Tuple> rows);

/// Runs a physical plan to completion. Timeouts are reported as a successful
/// QueryResult with `timed_out = true` (they are benchmark data, the `t_out`
/// histogram bin — not errors). Genuine failures (unknown object, malformed
/// plan) return a non-OK status.
Result<QueryResult> ExecutePlan(const PhysicalPlan& plan,
                                const ObjectResolver& resolver,
                                ExecContext* ctx);

/// EXPLAIN ANALYZE: like ExecutePlan, but writes each operator's measured
/// output cardinality into its PlanNode::actual_rows, so
/// `plan->ToString()` afterwards shows estimated-vs-actual rows side by
/// side — the observation step the paper finds missing from the
/// observe-predict-react loop (Section 6).
Result<QueryResult> ExecutePlanAnalyze(PhysicalPlan* plan,
                                       const ObjectResolver& resolver,
                                       ExecContext* ctx);

}  // namespace tabbench

#endif  // TABBENCH_EXEC_PLAN_EXECUTOR_H_
