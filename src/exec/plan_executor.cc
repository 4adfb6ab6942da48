#include "exec/plan_executor.h"

#include <algorithm>

#include "exec/operators.h"

namespace tabbench {

QueryResult FinishQuery(const ExecContext& ctx, bool timed_out,
                        std::vector<Tuple> rows) {
  QueryResult result;
  result.timed_out = timed_out;
  result.sim_seconds =
      timed_out ? ctx.params().timeout_seconds : ctx.sim_time();
  result.pages_read = ctx.pages_read();
  result.tuples_processed = ctx.tuples_processed();
  if (!timed_out) result.rows = std::move(rows);
  return result;
}

namespace {
Result<QueryResult> ExecutePlanImpl(const PhysicalPlan& plan,
                                    const ObjectResolver& resolver,
                                    ExecContext* ctx,
                                    OperatorRegistry* registry) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("plan has no root");
  }

  std::vector<Tuple> rows;
  auto finish = [&](bool timed_out) -> QueryResult {
    // Harvest per-operator actuals while the operator tree is still alive
    // (the registry's Operator pointers die with it).
    if (registry != nullptr) {
      for (const auto& [node, op] : *registry) {
        const_cast<PlanNode*>(node)->actual_rows =
            static_cast<int64_t>(op->rows_emitted());
      }
    }
    return FinishQuery(*ctx, timed_out, std::move(rows));
  };

  // Materialize the IN-subquery value sets first (they are real query work
  // and can themselves hit the timeout).
  auto in_sets = MaterializeInSets(plan, resolver, ctx);
  if (!in_sets.ok()) {
    if (in_sets.status().IsTimeout()) return finish(/*timed_out=*/true);
    return in_sets.status();
  }

  std::unique_ptr<Operator> root;
  TB_ASSIGN_OR_RETURN(
      root, BuildOperator(*plan.root, resolver, *in_sets, ctx, registry));
  Status open = root->Open();
  if (!open.ok()) {
    if (open.IsTimeout()) return finish(/*timed_out=*/true);
    return open;
  }
  Tuple t;
  for (;;) {
    auto more = root->Next(&t);
    if (!more.ok()) {
      if (more.status().IsTimeout()) return finish(/*timed_out=*/true);
      return more.status();
    }
    if (!*more) break;
    rows.push_back(std::move(t));
  }
  return finish(/*timed_out=*/false);
}
}  // namespace

Result<QueryResult> ExecutePlan(const PhysicalPlan& plan,
                                const ObjectResolver& resolver,
                                ExecContext* ctx) {
  return ExecutePlanImpl(plan, resolver, ctx, /*registry=*/nullptr);
}

Result<QueryResult> ExecutePlanAnalyze(PhysicalPlan* plan,
                                       const ObjectResolver& resolver,
                                       ExecContext* ctx) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  OperatorRegistry registry;
  return ExecutePlanImpl(*plan, resolver, ctx, &registry);
}

}  // namespace tabbench
