#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

namespace tabbench {

double TableRowsOf(const TableStats* ts) {
  if (ts == nullptr) return 1.0;
  return std::max<double>(1.0, static_cast<double>(ts->row_count));
}

double TablePagesOf(const TableStats* ts) {
  if (ts == nullptr) return 1.0;
  return std::max<double>(1.0, static_cast<double>(ts->pages));
}

double RowBytesOf(const TableStats* ts) {
  if (ts == nullptr || ts->avg_row_bytes <= 0.0) return 64.0;
  return ts->avg_row_bytes;
}

double DistinctOf(const DatabaseStats& stats, const std::string& table,
                  const std::string& column) {
  const ColumnStats* cs = stats.FindColumn(table, column);
  if (cs == nullptr || cs->num_distinct == 0) return 1.0;
  return static_cast<double>(cs->num_distinct);
}

double EqSelectivity(const DatabaseStats& stats, const std::string& table,
                     const std::string& column, const Value& literal) {
  const ColumnStats* cs = stats.FindColumn(table, column);
  if (cs == nullptr) return 0.1;
  double sel = cs->EstimateEqSelectivity(literal);
  return std::clamp(sel, 0.0, 1.0);
}

double InFreqSelectivity(const DatabaseStats& stats, const std::string& table,
                         const std::string& column, char cmp, int64_t k) {
  const ColumnStats* cs = stats.FindColumn(table, column);
  if (cs == nullptr) return 0.5;
  double sel = (cmp == '<') ? cs->FracRowsValueFreqLess(static_cast<uint64_t>(k))
                            : cs->FracRowsValueFreqEq(static_cast<uint64_t>(k));
  return std::clamp(sel, 0.0, 1.0);
}

double JoinSelectivityOf(double d1, double d2) {
  return 1.0 / std::max({d1, d2, 1.0});
}

double GroupCountOf(const std::vector<double>& distinct, double input_rows) {
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
