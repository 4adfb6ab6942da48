#ifndef TABBENCH_OPTIMIZER_CARDINALITY_H_
#define TABBENCH_OPTIMIZER_CARDINALITY_H_

#include <string>
#include <vector>

#include "stats/table_stats.h"
#include "types/value.h"

namespace tabbench {

// Cardinality estimation over collected statistics. All estimates follow
// the classical System-R assumptions (uniformity outside MCVs,
// independence of predicates, containment of join values) — deliberately
// so: the paper's Section 5 analysis hinges on optimizers being *estimate
// driven*, and on those estimates degrading with query complexity.

/// Rows, pages and average encoded row width in bytes, from a table's
/// already-found statistics (null: the table has none).
double TableRowsOf(const TableStats* ts);
double TablePagesOf(const TableStats* ts);
double RowBytesOf(const TableStats* ts);

/// Distinct non-null values of table.column (>= 1 when the table is
/// non-empty; 1 when the column has no statistics).
double DistinctOf(const DatabaseStats& stats, const std::string& table,
                  const std::string& column);

/// Selectivity of `table.column = literal` in [0, 1].
double EqSelectivity(const DatabaseStats& stats, const std::string& table,
                     const std::string& column, const Value& literal);

/// Selectivity of `column IN (SELECT .. HAVING COUNT(*) cmp k)`: the
/// fraction of rows whose value has frequency < k (or == k).
double InFreqSelectivity(const DatabaseStats& stats, const std::string& table,
                         const std::string& column, char cmp, int64_t k);

/// Selectivity of an equi-join whose sides have these distinct counts
/// (DistinctOf's values): 1 / max(d1, d2).
double JoinSelectivityOf(double d1, double d2);

/// Expected number of groups when grouping `input_rows` rows by columns
/// with these distinct counts (DistinctOf's values), capped at input_rows.
double GroupCountOf(const std::vector<double>& distinct, double input_rows);

}  // namespace tabbench

#endif  // TABBENCH_OPTIMIZER_CARDINALITY_H_
