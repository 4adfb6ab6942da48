#include "advisor/advisor.h"

#include <algorithm>
#include <numeric>

#include "util/strings.h"

namespace tabbench {

namespace {

/// Most structures one search picks.
constexpr int kMaxPicks = 24;
/// A workload more than this fraction of which the candidate generator
/// cannot analyze gets no recommendation (System A on NREF3J).
constexpr double kMaxUnsupportedFrac = 0.5;
/// Minimum estimated improvement for a pick, as a fraction of the
/// workload's current estimated cost. Structures that only help cheap
/// queries fall below this bar — the recommenders optimize total workload
/// cost and so "favor improving long-running queries (the ones that
/// dominate total cost)" (Section 4.3); this bar is that behavior.
constexpr double kMinBenefitFrac = 0.005;

/// Advisor's objective: total estimated cost saved per page, over the
/// queries a unit is relevant to, with view units boosted.
class TotalCostObjective final : public GreedyObjective {
 public:
  explicit TotalCostObjective(double view_score_boost)
      : view_score_boost_(view_score_boost) {}

  bool BeginRound(const std::vector<double>& cur) override {
    const double total = std::accumulate(cur.begin(), cur.end(), 0.0);
    min_benefit_ = std::max(1e-6, kMinBenefitFrac * total);
    return true;
  }

  double Score(const TrialCosts& trials, size_t ui,
               const std::vector<double>& cur,
               const std::vector<double>& trial) override {
    double benefit = 0.0;
    for (size_t i = 0; i < cur.size(); ++i) {
      if (trials.Relevant(ui, i)) benefit += cur[i] - trial[i];
    }
    if (benefit <= min_benefit_) return 0.0;
    const Unit& u = trials.units()[ui];
    double score = benefit / std::max(1.0, u.pages);
    if (u.is_view) score *= view_score_boost_;
    return score;
  }

 private:
  const double view_score_boost_;
  double min_benefit_ = 0.0;
};

}  // namespace

Result<GreedyResult> GreedySearch(const ConfigView& base,
                                  const AdvisorOptions& options,
                                  size_t eval_sample,
                                  const std::vector<BoundQuery>& workload,
                                  GreedyObjective* objective) {
  if (workload.empty()) {
    return Status::InvalidArgument("empty workload");
  }
  CandidateSet cands = GenerateCandidates(workload, *base.catalog,
                                          *base.stats, options.candidates);
  if (static_cast<double>(cands.unsupported_queries) >
      kMaxUnsupportedFrac * static_cast<double>(workload.size())) {
    return Status::NotFound(StrFormat(
        "recommender could not analyze %zu of %zu workload queries; "
        "no configuration produced",
        cands.unsupported_queries, workload.size()));
  }

  // Evaluation sample: a deterministic subset of the workload, in order.
  std::vector<const BoundQuery*> sample;
  {
    Rng rng(options.seed);
    std::vector<size_t> idx = rng.SampleWithoutReplacement(
        workload.size(), std::min(eval_sample, workload.size()));
    std::sort(idx.begin(), idx.end());
    for (size_t i : idx) sample.push_back(&workload[i]);
  }

  TrialCosts trials(base, options.whatif, MakeUnits(cands), sample);
  const std::vector<Unit>& units = trials.units();
  GreedyResult out;
  out.units = units.size();
  TB_ASSIGN_OR_RETURN(out.cost_before, trials.Baseline());

  // Three buffers of one size, swapped rather than reallocated: a trial
  // starts from the current costs, and the round's best trial becomes them.
  std::vector<double> cur = out.cost_before;
  std::vector<double> trial(cur.size());
  std::vector<double> best(cur.size());
  for (int round = 0; round < kMaxPicks && objective->BeginRound(cur);
       ++round) {
    // Try every remaining unit; strict > keeps the lowest index on a tie.
    int best_unit = -1;
    double best_score = 0.0;
    for (size_t ui = 0; ui < units.size(); ++ui) {
      if (trials.Taken(ui)) continue;
      if (options.space_budget_pages >= 0.0 &&
          out.pages + units[ui].pages > options.space_budget_pages) {
        continue;
      }
      std::copy(cur.begin(), cur.end(), trial.begin());
      TB_RETURN_IF_ERROR(trials.Trial(ui, &trial));
      const double score = objective->Score(trials, ui, cur, trial);
      if (score > best_score) {
        best_score = score;
        best_unit = static_cast<int>(ui);
        std::swap(best, trial);
      }
    }
    if (best_unit < 0) break;
    const size_t picked = static_cast<size_t>(best_unit);
    trials.Pick(picked);
    out.pages += units[picked].pages;
    std::swap(cur, best);
  }
  out.config = trials.Config();
  out.cost_after = std::move(cur);
  return out;
}

Result<Recommendation> Advisor::Recommend(
    const std::vector<BoundQuery>& workload) {
  TotalCostObjective objective(options_.view_score_boost);
  GreedyResult found;
  TB_ASSIGN_OR_RETURN(found, GreedySearch(base_, options_,
                                          options_.eval_sample, workload,
                                          &objective));
  Recommendation rec;
  rec.config = std::move(found.config);
  rec.config.name = "R";
  rec.est_cost_before = std::accumulate(found.cost_before.begin(),
                                        found.cost_before.end(), 0.0);
  rec.est_cost_after = std::accumulate(found.cost_after.begin(),
                                       found.cost_after.end(), 0.0);
  rec.est_pages = found.pages;
  rec.candidates_considered = found.units;
  return rec;
}

}  // namespace tabbench
