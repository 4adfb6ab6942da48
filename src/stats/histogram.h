#ifndef TABBENCH_STATS_HISTOGRAM_H_
#define TABBENCH_STATS_HISTOGRAM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "types/value.h"

namespace tabbench {

/// Equi-depth histogram over a column's non-null values.
///
/// Buckets hold (approximately) equal row counts; each bucket records its
/// inclusive upper bound, its row count, and its distinct-value count, which
/// is what the uniform-within-bucket equality estimate needs.
class EquiDepthHistogram {
 public:
  struct Bucket {
    Value upper;        // inclusive upper bound
    uint64_t rows = 0;
    uint64_t distinct = 0;
  };

  EquiDepthHistogram() = default;

  /// Builds from the runs of a sorted column of non-null values: each run
  /// is a value and its (positive) row count, in ascending value order.
  /// Adjacent runs whose values compare equal count as one value.
  static EquiDepthHistogram Build(
      const std::vector<std::pair<Value, uint64_t>>& runs,
      size_t num_buckets);

  /// Estimated number of rows with value == v (uniform within bucket).
  double EstimateEqRows(const Value& v) const;

  /// Estimated number of rows with value <= v.
  double EstimateLeRows(const Value& v) const;

  bool empty() const { return buckets_.empty(); }
  size_t num_buckets() const { return buckets_.size(); }
  const std::vector<Bucket>& buckets() const { return buckets_; }
  uint64_t total_rows() const { return total_rows_; }

 private:
  std::vector<Bucket> buckets_;
  uint64_t total_rows_ = 0;
};

}  // namespace tabbench

#endif  // TABBENCH_STATS_HISTOGRAM_H_
