#ifndef TABBENCH_ADVISOR_GOAL_ADVISOR_H_
#define TABBENCH_ADVISOR_GOAL_ADVISOR_H_

#include "advisor/advisor.h"
#include "core/goal.h"

namespace tabbench {

/// Outcome of goal-driven recommendation.
struct GoalRecommendation {
  Configuration config;
  /// Goal shortfall of the estimated CFC before/after (0 = goal met).
  double est_shortfall_before = 0.0;
  double est_shortfall_after = 0.0;
  double est_pages = 0.0;
  bool goal_met_by_estimates = false;
};

/// The recommender the paper argues for but no 2004 tool offered
/// (Sections 2.2 and 6): instead of minimizing total workload cost, accept
/// a quality-of-service goal G — a monotone step function over elapsed
/// times — and search for the *cheapest* configuration whose estimated
/// cumulative frequency curve satisfies CFC > G.
///
/// "Our use of curves depicting the cumulative frequencies of query
///  execution times ... bring forward the advantages of designing
///  recommenders that can accept quality of service goals specified by
///  constraints on these curves."
///
/// The search is Advisor's GreedySearch over every workload query, scored
/// by shortfall reduction per page (ties broken by total-cost reduction),
/// and stops as soon as the estimated curve clears the goal — so it
/// naturally spends *less* space than a total-cost advisor when the goal is
/// modest.
class GoalDrivenAdvisor {
 public:
  GoalDrivenAdvisor(ConfigView base, AdvisorOptions options,
                    PerformanceGoal goal)
      : base_(std::move(base)),
        options_(std::move(options)),
        goal_(std::move(goal)) {}

  Result<GoalRecommendation> Recommend(
      const std::vector<BoundQuery>& workload);

 private:
  ConfigView base_;
  AdvisorOptions options_;
  PerformanceGoal goal_;
};

}  // namespace tabbench

#endif  // TABBENCH_ADVISOR_GOAL_ADVISOR_H_
