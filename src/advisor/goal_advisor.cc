#include "advisor/goal_advisor.h"

#include <algorithm>
#include <numeric>

#include "advisor/trial_costs.h"

namespace tabbench {

namespace {

double ShortfallOf(const PerformanceGoal& goal,
                   const std::vector<double>& est_costs) {
  return goal.Shortfall(CumulativeFrequency::FromValues(est_costs));
}

}  // namespace

Result<GoalRecommendation> GoalDrivenAdvisor::Recommend(
    const std::vector<BoundQuery>& workload) {
  if (workload.empty()) {
    return Status::InvalidArgument("empty workload");
  }
  CandidateSet cands = GenerateCandidates(workload, *base_.catalog,
                                          *base_.stats, options_.candidates);
  if (static_cast<double>(cands.unsupported_queries) >
      options_.max_unsupported_frac * static_cast<double>(workload.size())) {
    return Status::NotFound("goal-driven recommender could not analyze the "
                            "workload; no configuration produced");
  }

  // The goal constrains the whole workload's curve, so evaluate every
  // query (goal satisfaction cannot be sampled away).
  std::vector<const BoundQuery*> queries;
  for (const auto& q : workload) queries.push_back(&q);
  TrialCosts trials(base_, options_.whatif, MakeUnits(cands), queries);
  const std::vector<Unit>& units = trials.units();
  std::vector<double> cur_cost;
  TB_ASSIGN_OR_RETURN(cur_cost, trials.Baseline());

  GoalRecommendation rec;
  rec.est_shortfall_before = ShortfallOf(goal_, cur_cost);

  double pages_used = 0.0;
  double cur_shortfall = rec.est_shortfall_before;

  for (int round = 0; round < options_.max_picks && cur_shortfall > 0.0;
       ++round) {
    int best_unit = -1;
    double best_score = 0.0;
    double best_shortfall = cur_shortfall;
    std::vector<double> best_costs;

    for (size_t ui = 0; ui < units.size(); ++ui) {
      if (trials.Taken(ui)) continue;
      const Unit& u = units[ui];
      if (options_.space_budget_pages >= 0.0 &&
          pages_used + u.pages > options_.space_budget_pages) {
        continue;
      }
      // Queries the unit is irrelevant to keep their current cost.
      std::vector<double> costs = cur_cost;
      TB_RETURN_IF_ERROR(trials.Trial(ui, &costs));
      double shortfall = ShortfallOf(goal_, costs);
      double gain = cur_shortfall - shortfall;
      // Primary objective: shortfall per page. Secondary tie-break: total
      // cost reduction per page scaled down so it only orders equal-gain
      // picks.
      double total_before =
          std::accumulate(cur_cost.begin(), cur_cost.end(), 0.0);
      double total_after = std::accumulate(costs.begin(), costs.end(), 0.0);
      double score = gain / std::max(1.0, u.pages) +
                     1e-9 * (total_before - total_after) /
                         std::max(1.0, u.pages);
      if (gain <= 0.0) continue;
      if (score > best_score) {
        best_score = score;
        best_unit = static_cast<int>(ui);
        best_shortfall = shortfall;
        best_costs = std::move(costs);
      }
    }
    if (best_unit < 0) break;
    trials.Pick(static_cast<size_t>(best_unit));
    pages_used += units[static_cast<size_t>(best_unit)].pages;
    cur_cost = std::move(best_costs);
    cur_shortfall = best_shortfall;
  }

  rec.config = trials.Config("G");
  rec.est_shortfall_after = cur_shortfall;
  rec.est_pages = pages_used;
  rec.goal_met_by_estimates = cur_shortfall <= 0.0;
  return rec;
}

}  // namespace tabbench
