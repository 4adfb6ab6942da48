#ifndef TABBENCH_OPTIMIZER_PREPARED_QUERY_H_
#define TABBENCH_OPTIMIZER_PREPARED_QUERY_H_

#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "exec/plan.h"
#include "sql/binder.h"
#include "stats/table_stats.h"
#include "types/value.h"
#include "util/status.h"

namespace tabbench {

/// A literal filter bound to an exposed slot of a planner unit.
struct FilterBinding {
  SlotRef slot;
  /// Column name within the unit's object, owned by the catalog's TableDef
  /// or the view's ViewDef.
  const std::string* object_column = nullptr;
  /// The bound query's literal.
  const Value* literal = nullptr;
  double selectivity = 1.0;
};

/// An IN-frequency predicate bound to an exposed slot of a planner unit.
struct InBinding {
  SlotRef slot;
  int set_id = -1;
  double selectivity = 1.0;
};

/// A query join with its estimates.
struct JoinInfo {
  SlotRef left, right;
  double selectivity = 1.0;
  double left_distinct = 1.0, right_distinct = 1.0;
};

/// One FROM occurrence as the planner's base unit: the relation and its
/// predicates, before any access path is costed.
struct PreparedOccurrence {
  double rows = 0;
  double pages = 1;
  double row_bytes = 64;
  /// Every column of the table in table order: layout[i] = {rel, i}, and
  /// col_names[i] its name in the catalog's TableDef.
  std::vector<SlotRef> layout;
  std::vector<const std::string*> col_names;
  std::vector<FilterBinding> filters;
  std::vector<InBinding> in_preds;
  /// Joins between two columns of this one occurrence.
  std::vector<std::pair<SlotRef, SlotRef>> residual_joins;
  /// rows times every predicate's selectivity, at least 1e-6.
  double filtered_rows = 0;
};

/// An IN-frequency subquery's inputs to its evaluation strategy.
struct PreparedInSet {
  int column_pos = -1;  // of sub_column in sub_table
  double rows = 1;      // of sub_table
  double pages = 1;
};

/// Everything the planner derives from a bound query, the catalog and one
/// set of statistics alone, so that planning the query under many
/// configurations repeats only the configuration's work: IN-set strategy,
/// access paths, view matching, the join search and the plan tree.
///
/// Holds pointers into the bound query, the catalog and the statistics it
/// was prepared against; all three must outlive it unchanged. Copies share
/// those pointers and are equally valid. PlanQuery and EstimateCost reject
/// a view whose catalog or statistics are not these.
struct PreparedQuery {
  const BoundQuery* query = nullptr;
  const Catalog* catalog = nullptr;
  const DatabaseStats* stats = nullptr;
  std::vector<PreparedInSet> in_sets;  // by IN-set id (query order)
  std::vector<JoinInfo> joins;         // query order
  /// Selectivity of each literal filter and IN-frequency predicate, in
  /// query order (a view unit binds the same predicates).
  std::vector<double> filter_selectivity;
  std::vector<double> in_selectivity;
  /// Distinct count of each GROUP BY column.
  std::vector<double> group_distinct;
  /// Slots each relation occurrence must deliver.
  std::vector<std::vector<SlotRef>> needed;
  std::vector<PreparedOccurrence> occurrences;  // by relation occurrence
};

/// Prepares `q` against `catalog` and `stats`. InvalidArgument for more than
/// 64 FROM occurrences or 64 joins; NotFound for a table or IN-subquery
/// column the catalog lacks.
Result<PreparedQuery> PrepareQuery(const BoundQuery& q, const Catalog& catalog,
                                   const DatabaseStats& stats);

}  // namespace tabbench

#endif  // TABBENCH_OPTIMIZER_PREPARED_QUERY_H_
