#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

namespace tabbench {

double CardinalityEstimator::Rows(const TableStats* ts) {
  if (ts == nullptr) return 1.0;
  return std::max<double>(1.0, static_cast<double>(ts->row_count));
}

double CardinalityEstimator::Pages(const TableStats* ts) {
  if (ts == nullptr) return 1.0;
  return std::max<double>(1.0, static_cast<double>(ts->pages));
}

double CardinalityEstimator::RowBytes(const TableStats* ts) {
  if (ts == nullptr || ts->avg_row_bytes <= 0.0) return 64.0;
  return ts->avg_row_bytes;
}

double CardinalityEstimator::TableRows(const std::string& table) const {
  return Rows(stats_->FindTable(table));
}

double CardinalityEstimator::Distinct(const std::string& table,
                                      const std::string& column) const {
  const ColumnStats* cs = stats_->FindColumn(table, column);
  if (cs == nullptr || cs->num_distinct == 0) return 1.0;
  return static_cast<double>(cs->num_distinct);
}

double CardinalityEstimator::EqSelectivity(const std::string& table,
                                           const std::string& column,
                                           const Value& literal) const {
  const ColumnStats* cs = stats_->FindColumn(table, column);
  if (cs == nullptr) return 0.1;
  double sel = cs->EstimateEqSelectivity(literal);
  return std::clamp(sel, 0.0, 1.0);
}

double CardinalityEstimator::InFreqSelectivity(const std::string& table,
                                               const std::string& column,
                                               char cmp, int64_t k) const {
  const ColumnStats* cs = stats_->FindColumn(table, column);
  if (cs == nullptr) return 0.5;
  double sel = (cmp == '<') ? cs->FracRowsValueFreqLess(static_cast<uint64_t>(k))
                            : cs->FracRowsValueFreqEq(static_cast<uint64_t>(k));
  return std::clamp(sel, 0.0, 1.0);
}

double CardinalityEstimator::JoinSelectivity(const std::string& t1,
                                             const std::string& c1,
                                             const std::string& t2,
                                             const std::string& c2) const {
  return JoinSelectivityOf(Distinct(t1, c1), Distinct(t2, c2));
}

double CardinalityEstimator::JoinSelectivityOf(double d1, double d2) {
  return 1.0 / std::max({d1, d2, 1.0});
}

double CardinalityEstimator::GroupCountOf(const std::vector<double>& distinct,
                                          double input_rows) {
  if (distinct.empty()) return 1.0;
  double prod = 1.0;
  for (double d : distinct) {
    prod *= d;
    if (prod > input_rows) break;
  }
  // Damping: with several group columns the product overshoots badly; cap
  // by input rows (every group needs a witness row).
  return std::max(1.0, std::min(prod, input_rows));
}

}  // namespace tabbench
