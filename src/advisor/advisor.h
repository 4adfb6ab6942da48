#ifndef TABBENCH_ADVISOR_ADVISOR_H_
#define TABBENCH_ADVISOR_ADVISOR_H_

#include <string>
#include <vector>

#include "advisor/candidates.h"
#include "advisor/trial_costs.h"
#include "optimizer/config_view.h"
#include "optimizer/whatif.h"
#include "util/rng.h"
#include "util/status.h"

namespace tabbench {

/// Tuning of one configuration recommender. Together with HypotheticalRules
/// this is what distinguishes the modeled commercial systems (profiles.h).
/// Every profile shares the greedy search's fixed rules (advisor.cc): at
/// most 24 picks, a pick must save more than 0.5% of the workload's current
/// estimated cost, and a workload more than half of which the candidate
/// generator cannot analyze gets no recommendation.
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

/// What a greedy search optimizes: an advisor's score and stop rule.
class GreedyObjective {
 public:
  virtual ~GreedyObjective() = default;
  /// Called before each pick round with the current estimated cost of each
  /// evaluated query; false ends the search.
  virtual bool BeginRound(const std::vector<double>& cur) = 0;
  /// Score of picking unit `ui`, under which the queries would cost `trial`
  /// instead of `cur`. A round picks the highest score above 0; on a tie,
  /// the lowest unit.
  virtual double Score(const TrialCosts& trials, size_t ui,
                       const std::vector<double>& cur,
                       const std::vector<double>& trial) = 0;
};

/// The outcome of a greedy search.
struct GreedyResult {
  Configuration config;  // the picks, in pick order; unnamed
  std::vector<double> cost_before;  // per evaluated query, on P
  std::vector<double> cost_after;   // the same under `config`
  double pages = 0.0;
  size_t units = 0;  // candidate units considered
};

/// The search every advisor runs (Section 2.2's model): candidate
/// generation from workload syntax (NotFound when the profile cannot
/// analyze too much of the workload), what-if trial costs of a
/// deterministic sample of `eval_sample` queries (all of them when it is at
/// least the workload's size), then greedy picks under the space budget
/// until no unit scores above 0, the objective stops, or the pick limit is
/// reached. All costs are hypothetical optimizer estimates
/// H(q, C_h, C_current) — never actual executions.
Result<GreedyResult> GreedySearch(const ConfigView& base,
                                  const AdvisorOptions& options,
                                  size_t eval_sample,
                                  const std::vector<BoundQuery>& workload,
                                  GreedyObjective* objective);

/// A what-if configuration recommender: GreedySearch over an evaluation
/// sample, scored by estimated total cost saved per page. Costs come from
/// hypothetical optimizer estimates only — never from actual executions.
/// That restriction is the paper's central observation about the
/// commercial tools.
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
