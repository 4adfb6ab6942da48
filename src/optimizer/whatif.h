#ifndef TABBENCH_OPTIMIZER_WHATIF_H_
#define TABBENCH_OPTIMIZER_WHATIF_H_

#include "catalog/catalog.h"
#include "catalog/configuration.h"
#include "optimizer/config_view.h"
#include "util/status.h"

namespace tabbench {

/// How hypothetical-index statistics are derived from base-table stats.
/// These knobs model the conservatism of real what-if implementations that
/// Section 5 of the paper identifies: a what-if call cannot measure the
/// index it has not built, so H(q, C_h, C_a) is systematically more
/// pessimistic than E(q, C_h) evaluated in the built target configuration.
struct HypotheticalRules {
  /// Assumed heap-page switch rate per fetched entry for an unbuilt index
  /// (1.0 = every fetch is a fresh page — worst case). Built indexes carry
  /// their *measured* clustering factor, typically much lower.
  double clustering_pessimism = 1.0;
  /// Assumed leaf fill factor when sizing an unbuilt index (built trees are
  /// bulk-loaded at ~0.9).
  double leaf_fill = 0.67;
  /// Whether hypothetical indexes are credited with covering (index-only)
  /// plans. Advisor profile B models a what-if that cannot.
  bool credit_index_only = true;
  /// Composite-key distinct estimate: when false, use only the leading
  /// column's NDV (conservative: overestimates rows per probe); when true,
  /// use the capped product of column NDVs.
  bool composite_ndv_product = false;
  /// When true, hypothetical-mode cost estimation ignores MCVs and
  /// histograms and falls back to uniform value densities (rows / NDV) —
  /// the dominant what-if simplification of the paper's era. Harmless on
  /// uniform data; badly misleading on Zipf-skewed data, which is the
  /// mechanism behind the paper's Fig 8 (skewed) vs Fig 9 (uniform)
  /// recommender-quality contrast.
  bool uniform_value_assumption = false;

  bool operator==(const HypotheticalRules&) const = default;
};

/// Statistics with value-distribution detail removed (no MCVs, no
/// histograms): equality selectivities degrade to rows/NDV. Used to model
/// `uniform_value_assumption` (the caller owns the copy).
DatabaseStats DegradeToUniform(const DatabaseStats& stats);

/// Builds a planner view of `config` *without building anything*: every
/// secondary index and view in `config` appears with statistics derived
/// from `stats` under `rules`. Primary-key indexes are inherited from
/// `base`, the view of the currently-built configuration (they exist in
/// every configuration).
Result<ConfigView> MakeHypotheticalView(const Configuration& config,
                                        const ConfigView& base,
                                        const HypotheticalRules& rules);

/// Derived statistics for one unbuilt index (exposed for tests/advisors).
PhysicalIndex DeriveHypotheticalIndex(const IndexDef& def,
                                      const Catalog& catalog,
                                      const DatabaseStats& stats,
                                      const HypotheticalRules& rules,
                                      double target_rows);

/// Estimated size, in pages, of an unbuilt index (the advisor's budget
/// accounting).
double EstimateIndexPages(const IndexDef& def, const Catalog& catalog,
                          const DatabaseStats& stats, double leaf_fill,
                          double target_rows);

/// Estimated rows and pages of an unbuilt view.
struct ViewSizeEstimate {
  double rows = 0;
  double pages = 1;
};
ViewSizeEstimate EstimateViewSize(const ViewDef& def, const Catalog& catalog,
                                  const DatabaseStats& stats);

}  // namespace tabbench

#endif  // TABBENCH_OPTIMIZER_WHATIF_H_
