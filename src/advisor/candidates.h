#ifndef TABBENCH_ADVISOR_CANDIDATES_H_
#define TABBENCH_ADVISOR_CANDIDATES_H_

#include <vector>

#include "catalog/catalog.h"
#include "catalog/configuration.h"
#include "sql/binder.h"
#include "stats/table_stats.h"
#include "util/status.h"

namespace tabbench {

/// One candidate physical structure with its estimated footprint.
struct IndexCandidate {
  IndexDef def;
  double est_pages = 0;
};

struct ViewCandidate {
  ViewDef def;
  /// Indexes proposed over the view (built together with it).
  std::vector<IndexDef> indexes;
  double est_pages = 0;
};

struct CandidateSet {
  std::vector<IndexCandidate> indexes;
  std::vector<ViewCandidate> views;
  /// Queries the candidate generator could not analyze (profile
  /// limitations). When this dominates the workload, the advisor declines
  /// to produce a recommendation — modeling the paper's System A failing on
  /// NREF3J (Section 4.1.2).
  size_t unsupported_queries = 0;
};

/// Knobs that differentiate the advisor profiles' candidate generation.
/// Every profile proposes covering composites no wider than 4 columns (the
/// paper observed none wider) and keeps the first 512 distinct index
/// candidates and 64 view candidates (candidates.cc).
struct CandidateOptions {
  /// Propose materialized views (join views and single-table projections)
  /// plus indexes over them. Profile C only.
  bool enable_views = false;
  /// Analyze columns inside IN-frequency subqueries and propose indexes
  /// enabling index-only frequency walks. The 2004-era tools analyzed the
  /// outer query block only — nested frequency predicates were opaque to
  /// candidate generation — so profiles A and B leave this off; leaving
  /// those columns uncovered is a major reason their recommendations trail
  /// the 1C baseline on NREF2J.
  bool analyze_subquery_columns = false;
  /// Decline queries that apply COUNT(DISTINCT ..) across a self-join —
  /// the shape of family NREF3J. Models System A's failure to produce any
  /// recommendation for that family.
  bool reject_count_distinct_self_joins = false;
};

/// Derives the candidate structures for a workload: single-column indexes on
/// every predicate/join/IN-subquery column, covering composites of up to 4
/// columns, and (optionally) join/projection views with their own
/// indexes.
CandidateSet GenerateCandidates(const std::vector<BoundQuery>& workload,
                                const Catalog& catalog,
                                const DatabaseStats& stats,
                                const CandidateOptions& opts);

}  // namespace tabbench

#endif  // TABBENCH_ADVISOR_CANDIDATES_H_
