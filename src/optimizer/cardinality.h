#ifndef TABBENCH_OPTIMIZER_CARDINALITY_H_
#define TABBENCH_OPTIMIZER_CARDINALITY_H_

#include <string>
#include <vector>

#include "stats/table_stats.h"
#include "types/value.h"

namespace tabbench {

/// Cardinality estimation over collected statistics. All estimates follow
/// the classical System-R assumptions (uniformity outside MCVs,
/// independence of predicates, containment of join values) — deliberately
/// so: the paper's Section 5 analysis hinges on optimizers being *estimate
/// driven*, and on those estimates degrading with query complexity.
class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(const DatabaseStats& stats) : stats_(&stats) {}

  /// Rows in `table`.
  double TableRows(const std::string& table) const;

  /// Rows, pages and average encoded row width in bytes, from a table's
  /// already-found statistics (null: the table has none).
  static double Rows(const TableStats* ts);
  static double Pages(const TableStats* ts);
  static double RowBytes(const TableStats* ts);

  /// Distinct non-null values of table.column (>= 1 when the table is
  /// non-empty).
  double Distinct(const std::string& table, const std::string& column) const;

  /// Selectivity of `table.column = literal` in [0, 1].
  double EqSelectivity(const std::string& table, const std::string& column,
                       const Value& literal) const;

  /// Selectivity of `column IN (SELECT .. HAVING COUNT(*) cmp k)`: the
  /// fraction of rows whose value has frequency < k (or == k).
  double InFreqSelectivity(const std::string& table, const std::string& column,
                           char cmp, int64_t k) const;

  /// Selectivity of the equi-join t1.c1 = t2.c2: 1 / max(ndv1, ndv2).
  double JoinSelectivity(const std::string& t1, const std::string& c1,
                         const std::string& t2, const std::string& c2) const;
  /// The same from the two sides' distinct counts (Distinct's values).
  static double JoinSelectivityOf(double d1, double d2);

  /// Expected number of groups when grouping `input_rows` rows by columns
  /// with these distinct counts (Distinct's values), capped at input_rows.
  static double GroupCountOf(const std::vector<double>& distinct,
                             double input_rows);

 private:
  const DatabaseStats* stats_;
};

}  // namespace tabbench

#endif  // TABBENCH_OPTIMIZER_CARDINALITY_H_
