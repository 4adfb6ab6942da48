#include "advisor/goal_advisor.h"

#include <algorithm>
#include <numeric>

namespace tabbench {

namespace {

double ShortfallOf(const PerformanceGoal& goal,
                   const std::vector<double>& est_costs) {
  return goal.Shortfall(CumulativeFrequency::FromValues(est_costs));
}

/// Shortfall reduction per page, ties broken by total-cost reduction; stops
/// once the estimated curve clears the goal.
class GoalObjective final : public GreedyObjective {
 public:
  explicit GoalObjective(const PerformanceGoal& goal) : goal_(goal) {}

  bool BeginRound(const std::vector<double>& cur) override {
    shortfall_ = ShortfallOf(goal_, cur);
    total_ = std::accumulate(cur.begin(), cur.end(), 0.0);
    return shortfall_ > 0.0;
  }

  double Score(const TrialCosts& trials, size_t ui,
               const std::vector<double>& /*cur*/,
               const std::vector<double>& trial) override {
    const double gain = shortfall_ - ShortfallOf(goal_, trial);
    if (gain <= 0.0) return 0.0;
    // The total-cost term is scaled down so it only orders equal-gain
    // picks.
    const double pages = std::max(1.0, trials.units()[ui].pages);
    const double total_after = std::accumulate(trial.begin(), trial.end(), 0.0);
    return gain / pages + 1e-9 * (total_ - total_after) / pages;
  }

 private:
  const PerformanceGoal& goal_;
  double shortfall_ = 0.0;
  double total_ = 0.0;
};

}  // namespace

Result<GoalRecommendation> GoalDrivenAdvisor::Recommend(
    const std::vector<BoundQuery>& workload) {
  GoalObjective objective(goal_);
  GreedyResult found;
  // The goal constrains the whole workload's curve, so evaluate every
  // query (goal satisfaction cannot be sampled away).
  TB_ASSIGN_OR_RETURN(found, GreedySearch(base_, options_, workload.size(),
                                          workload, &objective));
  GoalRecommendation rec;
  rec.config = std::move(found.config);
  rec.config.name = "G";
  rec.est_shortfall_before = ShortfallOf(goal_, found.cost_before);
  rec.est_shortfall_after = ShortfallOf(goal_, found.cost_after);
  rec.est_pages = found.pages;
  rec.goal_met_by_estimates = rec.est_shortfall_after <= 0.0;
  return rec;
}

}  // namespace tabbench
