#ifndef TABBENCH_CORE_BENCHMARK_SUITE_H_
#define TABBENCH_CORE_BENCHMARK_SUITE_H_

#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "core/configurations.h"
#include "core/query_family.h"
#include "core/runner.h"
#include "engine/database.h"

namespace tabbench {

struct ExperimentOptions {
  /// The paper samples 100 queries per family (Section 4.1.1).
  size_t workload_size = 100;
  uint64_t sample_seed = 77;
};

/// One configuration applied + one workload executed.
struct ConfigRunRecord {
  std::string config_name;
  BuildReport build;
  WorkloadResult result;
};

/// Orchestrates the paper's protocol for one (database, family) pair:
///   1. sample the family to 100 queries;
///   2. obtain recommendations from the P configuration, with the space
///      budget size(1C) - size(P) (Section 3.2.3);
///   3. build each configuration and execute the workload on it.
class FamilyExperiment {
 public:
  FamilyExperiment(Database* db, QueryFamily family, ExperimentOptions opts);

  /// Samples the workload (no-op if already prepared).
  Status Prepare();

  const QueryFamily& workload() const { return workload_; }
  size_t family_size() const { return full_size_; }
  Database* db() const { return db_; }

  /// The benchmark's space budget, in pages: the estimated footprint of 1C
  /// beyond P.
  double SpaceBudgetPages() const;

  /// Runs the advisor (with the benchmark budget applied to `profile`)
  /// against the workload, from the P configuration. NotFound = the
  /// recommender declined to produce any configuration.
  Result<Recommendation> Recommend(AdvisorOptions profile);

  /// Applies `config` and executes the workload on it.
  Result<ConfigRunRecord> RunOn(const Configuration& config);

  /// Convenience: runs P, 1C (and R when `rec` is non-null), in the
  /// paper's order.
  Result<std::vector<ConfigRunRecord>> RunStandard(
      const Configuration* recommended);

 private:
  Database* db_;
  QueryFamily full_family_;
  size_t full_size_ = 0;
  QueryFamily workload_;
  ExperimentOptions opts_;
  bool prepared_ = false;
};

/// Binds a workload's SQL against the catalog (advisor input).
Result<std::vector<BoundQuery>> BindWorkload(const QueryFamily& family,
                                             const Catalog& catalog);

}  // namespace tabbench

#endif  // TABBENCH_CORE_BENCHMARK_SUITE_H_
