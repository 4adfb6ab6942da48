#include "advisor/advisor.h"

#include <algorithm>
#include <numeric>

#include "advisor/trial_costs.h"
#include "util/strings.h"

namespace tabbench {

Result<Recommendation> Advisor::Recommend(
    const std::vector<BoundQuery>& workload) {
  if (workload.empty()) {
    return Status::InvalidArgument("empty workload");
  }
  CandidateSet cands = GenerateCandidates(workload, *base_.catalog,
                                          *base_.stats, options_.candidates);
  if (static_cast<double>(cands.unsupported_queries) >
      options_.max_unsupported_frac * static_cast<double>(workload.size())) {
    return Status::NotFound(StrFormat(
        "recommender could not analyze %zu of %zu workload queries; "
        "no configuration produced",
        cands.unsupported_queries, workload.size()));
  }

  // Evaluation sample: a deterministic subset of the workload.
  std::vector<const BoundQuery*> sample;
  {
    Rng rng(options_.seed);
    std::vector<size_t> idx = rng.SampleWithoutReplacement(
        workload.size(), std::min(options_.eval_sample, workload.size()));
    std::sort(idx.begin(), idx.end());
    for (size_t i : idx) sample.push_back(&workload[i]);
  }

  TrialCosts trials(base_, options_.whatif, MakeUnits(cands), sample);
  const std::vector<Unit>& units = trials.units();
  // Baseline hypothetical costs (the empty recommendation = P).
  std::vector<double> cur_cost;
  TB_ASSIGN_OR_RETURN(cur_cost, trials.Baseline());
  double before =
      std::accumulate(cur_cost.begin(), cur_cost.end(), 0.0,
                      [](double a, double b) { return a + b; });
  double pages_used = 0.0;

  for (int round = 0; round < options_.max_picks; ++round) {
    double current_total =
        std::accumulate(cur_cost.begin(), cur_cost.end(), 0.0,
                        [](double a, double b) { return a + b; });
    double min_benefit =
        std::max(1e-6, options_.min_benefit_frac * current_total);

    // Try every remaining unit; strict > keeps the lowest index on a tie.
    int best_unit = -1;
    double best_score = 0.0;
    std::vector<double> best_costs;
    for (size_t ui = 0; ui < units.size(); ++ui) {
      if (trials.Taken(ui)) continue;
      const Unit& u = units[ui];
      if (options_.space_budget_pages >= 0.0 &&
          pages_used + u.pages > options_.space_budget_pages) {
        continue;
      }
      std::vector<double> costs = cur_cost;
      TB_RETURN_IF_ERROR(trials.Trial(ui, &costs));
      double benefit = 0.0;
      for (size_t i = 0; i < sample.size(); ++i) {
        if (trials.Relevant(ui, i)) benefit += cur_cost[i] - costs[i];
      }
      // Update-aware charging: maintaining the structure costs I/O per
      // insert (descent + leaf write; views also re-derive their rows).
      if (options_.updates_per_query > 0.0) {
        const CostParams& cp = base_.params;
        double per_insert = 2.0 * cp.random_io_seconds + cp.page_io_seconds;
        double structures =
            u.is_view ? 2.0 * (1.0 + static_cast<double>(
                                         u.view.indexes.size()))
                      : 1.0;
        benefit -= options_.updates_per_query *
                   static_cast<double>(sample.size()) * per_insert *
                   structures;
      }
      if (benefit <= min_benefit) continue;
      double score = benefit / std::max(1.0, u.pages);
      if (u.is_view) score *= options_.view_score_boost;
      if (score > best_score) {
        best_score = score;
        best_unit = static_cast<int>(ui);
        best_costs = std::move(costs);
      }
    }

    if (best_unit < 0) break;
    const size_t best = static_cast<size_t>(best_unit);
    trials.Pick(best);
    pages_used += units[best].pages;
    cur_cost = std::move(best_costs);
  }

  Recommendation rec;
  rec.config = trials.Config("R");
  rec.est_cost_before = before;
  rec.est_cost_after =
      std::accumulate(cur_cost.begin(), cur_cost.end(), 0.0,
                      [](double a, double b) { return a + b; });
  rec.est_pages = pages_used;
  rec.candidates_considered = units.size();
  return rec;
}

}  // namespace tabbench
