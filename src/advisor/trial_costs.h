#ifndef TABBENCH_ADVISOR_TRIAL_COSTS_H_
#define TABBENCH_ADVISOR_TRIAL_COSTS_H_

#include <optional>
#include <string>
#include <vector>

#include "advisor/candidates.h"
#include "optimizer/config_view.h"
#include "optimizer/prepared_query.h"
#include "optimizer/whatif.h"
#include "util/status.h"

namespace tabbench {

/// A selectable unit of the greedy advisors: one index, or one view together
/// with its indexes (an atomic pick).
struct Unit {
  bool is_view = false;
  IndexCandidate index;
  ViewCandidate view;
  double pages = 0.0;

  /// True when the planner could use the unit in a plan of `q`. A view:
  /// every view table occurs in q's FROM list (FindViewMatches can match
  /// nothing else). An index: on some FROM occurrence of its table, its
  /// leading key column has a literal filter or a join (the only ways a
  /// seek binds a key part), or its key columns hold every column that
  /// occurrence needs (a covering scan); or it leads the column of an
  /// IN-frequency subquery over its table (the index-only frequency walk).
  /// Contract: adding a unit this returns false for must leave
  /// EstimateCost(q) bit-equal, wherever the unit sits in the configuration.
  /// A planner change that adds a way to use an index or a view must widen
  /// this test (tests/advisor_test.cc pins the contract).
  bool RelevantTo(const BoundQuery& q) const;
};

/// The units of a candidate set: its indexes, then its views.
std::vector<Unit> MakeUnits(const CandidateSet& cands);

/// Statistics with value-distribution detail removed (no MCVs, no
/// histograms): equality selectivities degrade to rows/NDV. The model of
/// HypotheticalRules::uniform_value_assumption, which TrialCosts alone
/// applies.
DatabaseStats DegradeToUniform(const DatabaseStats& stats);

/// What-if trial costing for a greedy search over `units`: the estimated
/// cost E of each query under `chosen ∪ {unit}`, all from hypothetical
/// views over `base` (degraded to uniform densities when `rules` say so).
///
/// Each query is prepared once, at construction, against those trial
/// statistics (PrepareQuery); every trial plans the prepared form. A query
/// that cannot be prepared fails Baseline() and Trial() with its error.
///
/// Relevance (Unit::RelevantTo) is computed once per (unit, query) and
/// trial costs are memoized per (unit, query). A pick changes only the
/// costs of the queries it is relevant to, so Pick() drops those queries'
/// entries and keeps the rest: every cost a search reads is bit-identical
/// to re-planning the query under the full trial configuration. A unit's
/// trial view is built only when one of its relevant queries misses the
/// memo.
class TrialCosts {
 public:
  TrialCosts(const ConfigView& base, const HypotheticalRules& rules,
             std::vector<Unit> units, std::vector<const BoundQuery*> queries);
  TrialCosts(const TrialCosts&) = delete;
  TrialCosts& operator=(const TrialCosts&) = delete;

  const std::vector<Unit>& units() const { return units_; }
  bool Taken(size_t ui) const { return taken_[ui]; }
  /// Unit `ui`'s RelevantTo for query `qi`, as computed at construction.
  bool Relevant(size_t ui, size_t qi) const {
    return relevant_[ui * queries_.size() + qi];
  }

  /// E of every query under the structures picked so far (none yet: P).
  Result<std::vector<double>> Baseline() const;

  /// Sets (*costs)[i] to E of query i under the picked structures plus unit
  /// `ui`, for every query the unit is relevant to; other entries are left
  /// alone (they already hold the current costs).
  Status Trial(size_t ui, std::vector<double>* costs);

  /// Adds unit `ui` to the picked structures and forgets the trial costs
  /// of the queries it is relevant to.
  void Pick(size_t ui);

  /// The picked structures, in pick order; unnamed.
  Configuration Config() const;

 private:
  DatabaseStats degraded_;  // whatif_base_.stats points here when degraded
  ConfigView whatif_base_;
  HypotheticalRules rules_;
  std::vector<Unit> units_;
  std::vector<const BoundQuery*> queries_;
  std::vector<PreparedQuery> prepared_;  // by query, against whatif_base_
  Status prepare_status_;  // the first preparation error, if any
  std::vector<size_t> chosen_;
  std::vector<bool> taken_;
  // Row-major [unit][query]: RelevantTo, fixed at construction.
  std::vector<bool> relevant_;
  // Row-major [unit][query], empty until evaluated.
  std::vector<std::optional<double>> cost_;
};

}  // namespace tabbench

#endif  // TABBENCH_ADVISOR_TRIAL_COSTS_H_
