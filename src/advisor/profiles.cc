#include "advisor/profiles.h"

namespace tabbench {

AdvisorOptions SystemAProfile() {
  AdvisorOptions o;
  o.candidates.enable_views = false;
  o.candidates.reject_count_distinct_self_joins = true;
  o.whatif.credit_index_only = true;
  o.whatif.composite_ndv_product = false;
  o.whatif.uniform_value_assumption = true;
  o.seed = 11;
  return o;
}

AdvisorOptions SystemBProfile() {
  AdvisorOptions o;
  o.candidates.enable_views = false;
  o.whatif.credit_index_only = false;  // the conservative what-if
  o.whatif.composite_ndv_product = false;
  o.whatif.uniform_value_assumption = true;
  o.seed = 13;
  return o;
}

AdvisorOptions SystemCProfile() {
  AdvisorOptions o;
  o.candidates.enable_views = true;
  o.candidates.analyze_subquery_columns = true;
  o.whatif.credit_index_only = true;
  o.whatif.composite_ndv_product = true;
  o.whatif.uniform_value_assumption = true;
  o.view_score_boost = 6.0;
  // Aggressive workload compression: C evaluates candidates on a small
  // sample. On uniform data the sample generalizes (Fig 9); on skewed data
  // it misses the patterns the sample did not cover (Fig 8).
  o.eval_sample = 15;
  o.seed = 17;
  return o;
}

AdvisorOptions ProfileByName(const std::string& name) {
  if (name == "A") return SystemAProfile();
  if (name == "B") return SystemBProfile();
  return SystemCProfile();
}

}  // namespace tabbench
