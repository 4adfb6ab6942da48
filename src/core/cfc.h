#ifndef TABBENCH_CORE_CFC_H_
#define TABBENCH_CORE_CFC_H_

#include <string>
#include <vector>

namespace tabbench {

/// Elapsed time of one workload query on one configuration.
struct QueryTiming {
  double seconds = 0.0;
  bool timed_out = false;
  /// The query's execution ended in an error and was censored at the
  /// timeout cost. `timed_out` is always set alongside, so
  /// CFC censoring needs no new logic; `failed` only annotates why.
  bool failed = false;
};

/// Cumulative (relative) frequency of elapsed times — the paper's central
/// performance characterization (Section 2.2):
///
///   CFC_Cj(x) = count({qk : A(qk, Cj) < x}) / size(W)
///
/// Timed-out queries never count toward CFC(x) for any finite x; they are
/// the gap between the curve's right end and 100%.
class CumulativeFrequency {
 public:
  static CumulativeFrequency FromTimings(const std::vector<QueryTiming>& ts);
  /// From raw values (estimates, improvement ratios, ...).
  static CumulativeFrequency FromValues(const std::vector<double>& values);

  /// Fraction of queries with time < x, in [0, 1].
  double At(double x) const;

  /// Smallest x with CFC(x) >= frac, or +inf when the timeouts make the
  /// curve top out below frac (quantile read-off, e.g. the median).
  double Quantile(double frac) const;

  /// First-order stochastic dominance: this curve is everywhere >= other,
  /// and > somewhere. The paper reads "1C is superior to R and P" off
  /// exactly this relation (Fig. 3).
  bool Dominates(const CumulativeFrequency& other) const;

  size_t total() const { return total_; }
  size_t timeouts() const { return timeouts_; }
  const std::vector<double>& sorted_times() const { return sorted_times_; }

 private:
  std::vector<double> sorted_times_;  // completed queries only
  size_t total_ = 0;
  size_t timeouts_ = 0;
};

/// Log-scale histogram with a trailing `t_out` bin — the presentation of
/// Figures 1 and 2.
struct LogHistogram {
  /// Bin i covers [edges[i], edges[i+1]). counts.size() == edges.size()-1.
  std::vector<double> edges;
  std::vector<uint64_t> counts;
  uint64_t timeouts = 0;
  uint64_t below_range = 0;

  /// Half-decade bins spanning [lo, hi), e.g. lo=1, hi=10000.
  static LogHistogram Build(const std::vector<QueryTiming>& ts, double lo,
                            double hi, int bins_per_decade = 2);
  static LogHistogram FromValues(const std::vector<double>& values, double lo,
                                 double hi, int bins_per_decade = 2);
};

}  // namespace tabbench

#endif  // TABBENCH_CORE_CFC_H_
