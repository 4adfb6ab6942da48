#ifndef TABBENCH_ADVISOR_ADVISOR_H_
#define TABBENCH_ADVISOR_ADVISOR_H_

#include <string>
#include <vector>

#include "advisor/candidates.h"
#include "optimizer/config_view.h"
#include "optimizer/whatif.h"
#include "util/rng.h"
#include "util/status.h"

namespace tabbench {

/// Tuning of one configuration recommender. Together with HypotheticalRules
/// this is what distinguishes the modeled commercial systems (profiles.h).
struct AdvisorOptions {
  CandidateOptions candidates;
  HypotheticalRules whatif;
  /// Space budget for secondary structures, in pages. Negative = unlimited.
  /// The benchmark sets size(1C) - size(P), Section 3.2.3.
  double space_budget_pages = -1.0;
  /// Number of workload queries evaluated per what-if round (larger = more
  /// faithful, slower). The tools the paper tested compress workloads the
  /// same way (reference [4]).
  size_t eval_sample = 30;
  /// Maximum structures picked by the greedy search.
  int max_picks = 24;
  /// Minimum estimated improvement for a pick, as a fraction of the
  /// workload's current estimated cost. Structures that only help cheap
  /// queries fall below this bar — the recommenders optimize total workload
  /// cost and so "favor improving long-running queries (the ones that
  /// dominate total cost)" (Section 4.3); this knob is that behavior.
  double min_benefit_frac = 0.005;
  /// Give up entirely when more than this fraction of the workload is
  /// unanalyzable (System A on NREF3J).
  double max_unsupported_frac = 0.5;
  /// Update-aware extension (paper Section 4.4 calls update workloads "a
  /// valuable extension to the current benchmark"): expected single-row
  /// inserts per workload query. Every candidate's benefit is charged its
  /// estimated maintenance cost — descent I/O plus a leaf write per index
  /// (double for materialized views, which also maintain the view rows).
  /// 0 = the paper's read-only setting.
  double updates_per_query = 0.0;
  /// Multiplier on the benefit-per-page score of materialized-view units.
  /// System C's search strongly favors MV-based designs (paper Table 3:
  /// 12 of its 16 UnTH3J indexes sit on materialized views); this knob
  /// models that bias explicitly. 1.0 = neutral.
  double view_score_boost = 1.0;
  uint64_t seed = 7;
};

/// A produced recommendation with its what-if bookkeeping.
struct Recommendation {
  Configuration config;
  double est_cost_before = 0.0;
  double est_cost_after = 0.0;
  double est_pages = 0.0;
  size_t candidates_considered = 0;
};

/// A what-if configuration recommender (Section 2.2's model): candidate
/// generation from workload syntax, greedy benefit-per-page selection under
/// a space budget, all costs taken from hypothetical optimizer estimates
/// H(q, C_h, C_current) — never from actual executions. That restriction is
/// the paper's central observation about the commercial tools.
class Advisor {
 public:
  /// `base` is the planner view of the *currently built* configuration
  /// (statistics collected, P indexes in place). Held by value: the advisor
  /// outlives any temporary view handed to it.
  Advisor(ConfigView base, AdvisorOptions options)
      : base_(std::move(base)), options_(std::move(options)) {}

  /// Produces a recommendation for the workload, or NotFound when the
  /// profile cannot analyze it (no configuration is produced at all).
  Result<Recommendation> Recommend(const std::vector<BoundQuery>& workload);

 private:
  ConfigView base_;
  AdvisorOptions options_;
};

}  // namespace tabbench

#endif  // TABBENCH_ADVISOR_ADVISOR_H_
