#include "advisor/trial_costs.h"

#include <algorithm>

#include "optimizer/planner.h"

namespace tabbench {

namespace {

Configuration MakeConfig(const std::vector<Unit>& units,
                         const std::vector<size_t>& picks) {
  Configuration config;
  for (size_t ui : picks) {
    const Unit& u = units[ui];
    if (u.is_view) {
      config.views.push_back(u.view.def);
      for (const auto& idx : u.view.indexes) config.indexes.push_back(idx);
    } else {
      config.indexes.push_back(u.index.def);
    }
  }
  return config;
}

}  // namespace

bool Unit::RelevantTo(const BoundQuery& q) const {
  auto contains = [](const std::vector<std::string>& names,
                     const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  if (is_view) {
    for (const auto& t : view.def.tables) {
      if (!contains(q.relations, t)) return false;
    }
    return true;
  }
  const IndexDef& def = index.def;
  if (def.columns.empty()) return false;
  for (const auto& p : q.in_preds) {
    if (p.sub_table == def.target && p.sub_column == def.columns[0]) {
      return true;
    }
  }
  for (int r = 0; r < q.num_relations(); ++r) {
    if (q.relations[static_cast<size_t>(r)] != def.target) continue;
    bool leading_bound = false;
    bool covers = true;
    // `binds`: c is a join or literal-filter column, which can bind a seek.
    auto use = [&](const BoundColumn& c, bool binds) {
      if (c.rel != r) return;
      if (binds && c.column == def.columns[0]) leading_bound = true;
      if (!contains(def.columns, c.column)) covers = false;
    };
    for (const auto& j : q.joins) {
      use(j.left, true);
      use(j.right, true);
    }
    for (const auto& f : q.filters) use(f.column, true);
    for (const auto& p : q.in_preds) use(p.column, false);
    for (const auto& g : q.group_by) use(g, false);
    for (const auto& s : q.select) {
      if (s.kind != BoundSelectItem::Kind::kCountStar) use(s.column, false);
    }
    if (leading_bound || covers) return true;
  }
  return false;
}

std::vector<Unit> MakeUnits(const CandidateSet& cands) {
  std::vector<Unit> units;
  for (const auto& ic : cands.indexes) {
    units.push_back(Unit{false, ic, {}, ic.est_pages});
  }
  for (const auto& vc : cands.views) {
    units.push_back(Unit{true, {}, vc, vc.est_pages});
  }
  return units;
}

DatabaseStats DegradeToUniform(const DatabaseStats& stats) {
  DatabaseStats out = stats;
  for (auto& [tname, ts] : out.tables) {
    for (auto& [cname, cs] : ts.columns) {
      cs.mcvs.clear();
      cs.histogram = EquiDepthHistogram();
    }
  }
  return out;
}

TrialCosts::TrialCosts(const ConfigView& base, const HypotheticalRules& rules,
                       std::vector<Unit> units,
                       std::vector<const BoundQuery*> queries)
    : whatif_base_(base),
      rules_(rules),
      units_(std::move(units)),
      queries_(std::move(queries)),
      taken_(units_.size(), false),
      relevant_(units_.size() * queries_.size()),
      cost_(units_.size() * queries_.size()) {
  for (size_t ui = 0; ui < units_.size(); ++ui) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      relevant_[ui * queries_.size() + i] =
          units_[ui].RelevantTo(*queries_[i]);
    }
  }
  // Era-faithful estimation: what-if costing may ignore value-distribution
  // detail (uniform densities). The degraded copy lives with the memo.
  if (rules_.uniform_value_assumption) {
    degraded_ = DegradeToUniform(*base.stats);
    whatif_base_.stats = &degraded_;
  }
  if (whatif_base_.catalog == nullptr || whatif_base_.stats == nullptr) {
    prepare_status_ =
        Status::InvalidArgument("base view missing catalog or stats");
    return;
  }
  prepared_.reserve(queries_.size());
  for (const BoundQuery* q : queries_) {
    auto pq = PrepareQuery(*q, *whatif_base_.catalog, *whatif_base_.stats);
    if (!pq.ok()) {
      prepare_status_ = pq.status();
      prepared_.clear();
      return;
    }
    prepared_.push_back(pq.TakeValue());
  }
}

Configuration TrialCosts::Config() const {
  return MakeConfig(units_, chosen_);
}

Result<std::vector<double>> TrialCosts::Baseline() const {
  TB_RETURN_IF_ERROR(prepare_status_);
  ConfigView v;
  TB_ASSIGN_OR_RETURN(v, MakeHypotheticalView(Config(), whatif_base_, rules_));
  std::vector<double> costs(queries_.size(), 0.0);
  for (size_t i = 0; i < queries_.size(); ++i) {
    TB_ASSIGN_OR_RETURN(costs[i], EstimateCost(prepared_[i], v));
  }
  return costs;
}

Status TrialCosts::Trial(size_t ui, std::vector<double>* costs) {
  TB_RETURN_IF_ERROR(prepare_status_);
  std::optional<ConfigView> view;  // built on the first memo miss
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (!Relevant(ui, i)) continue;
    std::optional<double>& cost = cost_[ui * queries_.size() + i];
    if (!cost) {
      if (!view) {
        std::vector<size_t> trial = chosen_;
        trial.push_back(ui);
        TB_ASSIGN_OR_RETURN(
            view, MakeHypotheticalView(MakeConfig(units_, trial),
                                       whatif_base_, rules_));
      }
      TB_ASSIGN_OR_RETURN(cost, EstimateCost(prepared_[i], *view));
    }
    (*costs)[i] = *cost;
  }
  return Status::OK();
}

void TrialCosts::Pick(size_t ui) {
  chosen_.push_back(ui);
  taken_[ui] = true;
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (!Relevant(ui, i)) continue;
    for (size_t u = 0; u < units_.size(); ++u) {
      cost_[u * queries_.size() + i].reset();
    }
  }
}

}  // namespace tabbench
