#include "core/benchmark_suite.h"

#include "core/sampling.h"
#include "optimizer/whatif.h"

namespace tabbench {

FamilyExperiment::FamilyExperiment(Database* db, QueryFamily family,
                                   ExperimentOptions opts)
    : db_(db),
      full_family_(std::move(family)),
      full_size_(full_family_.queries.size()),
      opts_(opts) {}

Status FamilyExperiment::Prepare() {
  if (prepared_) return Status::OK();
  // Sampling stratifies by estimated cost on the *initial* configuration.
  TB_RETURN_IF_ERROR(db_->ResetToPrimary());
  Result<QueryFamily> sampled = SampleFamily(
      full_family_, db_, opts_.workload_size, opts_.sample_seed);
  if (!sampled.ok()) return sampled.status();
  workload_ = sampled.TakeValue();
  prepared_ = true;
  return Status::OK();
}

double FamilyExperiment::SpaceBudgetPages() const {
  Configuration one_c = Make1CConfig(db_->catalog());
  double pages = 0.0;
  for (const auto& idx : one_c.indexes) {
    pages += EstimateIndexPages(idx, db_->catalog(), db_->stats(),
                                /*leaf_fill=*/0.9, /*target_rows=*/-1.0);
  }
  return pages;
}

Result<Recommendation> FamilyExperiment::Recommend(AdvisorOptions profile) {
  TB_RETURN_IF_ERROR(Prepare());
  // "All the recommended configurations are obtained using the P
  // configuration as the starting point, the difference in size between 1C
  // and P as the space budget, and no limit on the time the recommender is
  // allowed to run." (Section 3.2.3)
  TB_RETURN_IF_ERROR(db_->ResetToPrimary());
  profile.space_budget_pages = SpaceBudgetPages();
  std::vector<BoundQuery> bound;
  TB_ASSIGN_OR_RETURN(bound, BindWorkload(workload_, db_->catalog()));
  ConfigView view = db_->CurrentView();
  Advisor advisor(view, profile);
  return advisor.Recommend(bound);
}

Result<ConfigRunRecord> FamilyExperiment::RunOn(const Configuration& config) {
  TB_RETURN_IF_ERROR(Prepare());
  ConfigRunRecord rec;
  rec.config_name = config.name;
  if (config.indexes.empty() && config.views.empty()) {
    TB_RETURN_IF_ERROR(db_->ResetToPrimary());
  } else {
    TB_ASSIGN_OR_RETURN(rec.build, db_->ApplyConfiguration(config));
  }
  TB_ASSIGN_OR_RETURN(rec.result, RunWorkload(db_, workload_.Sql()));
  return rec;
}

Result<std::vector<ConfigRunRecord>> FamilyExperiment::RunStandard(
    const Configuration* recommended) {
  std::vector<ConfigRunRecord> out;
  ConfigRunRecord rec;
  TB_ASSIGN_OR_RETURN(rec, RunOn(MakePConfig()));
  out.push_back(std::move(rec));
  if (recommended != nullptr) {
    ConfigRunRecord r;
    TB_ASSIGN_OR_RETURN(r, RunOn(*recommended));
    out.push_back(std::move(r));
  }
  ConfigRunRecord one_c;
  TB_ASSIGN_OR_RETURN(one_c, RunOn(Make1CConfig(db_->catalog())));
  out.push_back(std::move(one_c));
  return out;
}

Result<std::vector<BoundQuery>> BindWorkload(const QueryFamily& family,
                                             const Catalog& catalog) {
  std::vector<BoundQuery> out;
  out.reserve(family.queries.size());
  for (const auto& q : family.queries) {
    BoundQuery b;
    TB_ASSIGN_OR_RETURN(b, ParseAndBind(q.sql, catalog));
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace tabbench
