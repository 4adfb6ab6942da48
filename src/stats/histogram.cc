#include "stats/histogram.h"

#include <algorithm>

namespace tabbench {

EquiDepthHistogram EquiDepthHistogram::Build(
    const std::vector<std::pair<Value, uint64_t>>& runs, size_t num_buckets) {
  EquiDepthHistogram h;
  uint64_t n = 0;
  for (const auto& run : runs) n += run.second;
  if (n == 0 || num_buckets == 0) return h;
  h.total_rows_ = n;
  const uint64_t buckets = std::min<uint64_t>(num_buckets, n);
  const uint64_t target_depth = (n + buckets - 1) / buckets;

  Bucket cur;
  uint64_t cur_rows = 0, cur_distinct = 0;
  for (size_t k = 0; k < runs.size(); ++k) {
    const Value& v = runs[k].first;
    if (k == 0 || v != runs[k - 1].first) ++cur_distinct;
    cur_rows += runs[k].second;
    // Close the bucket at value boundaries once the target depth is met, so
    // that a single value never straddles two buckets.
    const bool last = (k + 1 == runs.size());
    const bool boundary = last || (runs[k + 1].first != v);
    if (boundary && (cur_rows >= target_depth || last)) {
      cur.upper = v;
      cur.rows = cur_rows;
      cur.distinct = cur_distinct;
      h.buckets_.push_back(cur);
      cur_rows = 0;
      cur_distinct = 0;
    }
  }
  return h;
}

double EquiDepthHistogram::EstimateEqRows(const Value& v) const {
  if (buckets_.empty()) return 0.0;
  // Find the first bucket whose upper bound >= v.
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), v,
      [](const Bucket& b, const Value& x) { return b.upper < x; });
  if (it == buckets_.end()) return 0.0;  // above max
  if (it->distinct == 0) return 0.0;
  return static_cast<double>(it->rows) / static_cast<double>(it->distinct);
}

double EquiDepthHistogram::EstimateLeRows(const Value& v) const {
  double rows = 0.0;
  for (const auto& b : buckets_) {
    if (b.upper <= v) {
      rows += static_cast<double>(b.rows);
    } else {
      // Partial bucket: assume half the bucket qualifies (no lower bound
      // tracked; adequate for the equality-only benchmark workloads).
      rows += static_cast<double>(b.rows) / 2.0;
      break;
    }
  }
  return rows;
}

}  // namespace tabbench
