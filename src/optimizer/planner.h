#ifndef TABBENCH_OPTIMIZER_PLANNER_H_
#define TABBENCH_OPTIMIZER_PLANNER_H_

#include "exec/plan.h"
#include "optimizer/config_view.h"
#include "optimizer/prepared_query.h"
#include "sql/binder.h"
#include "util/status.h"

namespace tabbench {

/// Cost-based planning of a bound query against a configuration.
///
/// Search space: for every partition of the FROM occurrences into units
/// (base relations, or materialized views matched to a subset of them),
/// every left-deep order of the units, with per-unit access paths
/// (sequential scan, index seek on literal prefixes, covering index-only
/// scan) and per-step join methods (hash join, index nested-loop join).
/// IN-frequency subqueries are planned as one materialization each, either
/// a heap scan or an index-only walk of an index led by the subquery
/// column.
///
/// The search is cost-first: each unit's access paths are costed once, each
/// join order is costed on a running {rows, cost, row_bytes, rels} state,
/// and plan nodes are allocated for the winning plan alone. Queries with
/// more than 64 FROM occurrences or 64 joins are rejected (InvalidArgument).
///
/// Returns the cheapest plan found together with its estimated cost
/// E(q, C) in `PhysicalPlan::est_cost` (simulated seconds). `pq` must have
/// been prepared against `view.catalog` and `view.stats` (InvalidArgument
/// otherwise); planning repeats none of the preparation's work.
Result<PhysicalPlan> PlanQuery(const PreparedQuery& pq, const ConfigView& view);

/// Only the estimated cost E(q, C): the same search without the tree build,
/// so the result bit-equals PlanQuery(pq, view)->est_cost. Makes no heap
/// allocation for any query whose search fits the planner's stack arena.
Result<double> EstimateCost(const PreparedQuery& pq, const ConfigView& view);

/// PrepareQuery(q, *view.catalog, *view.stats), then the prepared form:
/// for a query planned once. Code that plans one query under several
/// configurations prepares it once instead.
Result<PhysicalPlan> PlanQuery(const BoundQuery& q, const ConfigView& view);
Result<double> EstimateCost(const BoundQuery& q, const ConfigView& view);

}  // namespace tabbench

#endif  // TABBENCH_OPTIMIZER_PLANNER_H_
